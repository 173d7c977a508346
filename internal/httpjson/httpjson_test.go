package httpjson

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestWrite: one line of compact JSON, its length in the header, and a
// value that does not encode answered as a 500 with an error body.
func TestWrite(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, http.StatusCreated, map[string]any{"a": 1, "b": []int{2, 3}})
	body := rec.Body.String()
	if rec.Code != http.StatusCreated {
		t.Fatalf("status %d, want 201", rec.Code)
	}
	if body != `{"a":1,"b":[2,3]}`+"\n" {
		t.Fatalf("body %q, want one compact line", body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, len(body))
	}

	rec = httptest.NewRecorder()
	Write(rec, http.StatusOK, math.Inf(1))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value: status %d, want 500", rec.Code)
	}
	if !strings.HasPrefix(rec.Body.String(), `{"error":"encoding the response: `) {
		t.Fatalf("unencodable value: body %q", rec.Body.String())
	}
}

// TestDecode: a field the value lacks, data after the value and a body
// over the limit are all refused; trailing whitespace is not.
func TestDecode(t *testing.T) {
	type msg struct {
		URL   string `json:"url"`
		Slots int    `json:"slots"`
	}
	var m msg
	if err := Decode(strings.NewReader(`{"url":"http://a","slots":2}`+" \n"), 1<<10, &m); err != nil || m != (msg{"http://a", 2}) {
		t.Fatalf("valid body: %+v, %v", m, err)
	}
	for name, body := range map[string]string{
		"unknown field": `{"url":"http://a","slots":2,"busy":1}`,
		"second object": `{"url":"http://a"}{"url":"http://b"}`,
		"trailing junk": `{"url":"http://a"} x`,
	} {
		if err := Decode(strings.NewReader(body), 1<<10, &m); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
	long := `{"url":"` + strings.Repeat("a", 64) + `"}`
	if err := Decode(strings.NewReader(long), 1<<10, &m); err != nil {
		t.Fatalf("%d-byte body under the limit: %v", len(long), err)
	}
	if err := Decode(strings.NewReader(long), 32, &m); err == nil {
		t.Errorf("%d-byte body accepted under a 32-byte limit", len(long))
	}
}

// TestCall: a 200 reply lands in out; any other status is a
// *StatusError carrying the reply's error text; a refused dial is the
// client's *url.Error.
func TestCall(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			N int `json:"n"`
		}
		if err := Decode(r.Body, 1<<10, &in); err != nil {
			Write(w, http.StatusBadRequest, map[string]string{"error": "bad body: " + err.Error()})
			return
		}
		if in.N < 0 {
			http.Error(w, "plain text", http.StatusTeapot)
			return
		}
		Write(w, http.StatusOK, map[string]int{"twice": 2 * in.N})
	}))
	t.Cleanup(srv.Close)
	ctx := context.Background()

	var out struct {
		Twice int `json:"twice"`
	}
	if err := Call(ctx, srv.Client(), http.MethodPost, srv.URL, map[string]int{"n": 21}, &out, 1<<10); err != nil || out.Twice != 42 {
		t.Fatalf("200: %+v, %v", out, err)
	}

	err := Call(ctx, srv.Client(), http.MethodPost, srv.URL, map[string]int{"m": 1}, &out, 0)
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusBadRequest || !strings.HasPrefix(status.Msg, "bad body: ") {
		t.Fatalf("400: %#v", err)
	}
	if err.Error() != status.Msg {
		t.Fatalf("400: Error() %q, want the reply's text %q", err.Error(), status.Msg)
	}

	err = Call(ctx, srv.Client(), http.MethodPost, srv.URL, map[string]int{"n": -1}, &out, 0)
	if !errors.As(err, &status) || status.Code != http.StatusTeapot || status.Msg != "" || err.Error() != "status 418" {
		t.Fatalf("418 with a text body: %#v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()
	err = Call(ctx, http.DefaultClient, http.MethodGet, refused, nil, &out, 0)
	var lost *url.Error
	if !errors.As(err, &lost) {
		t.Fatalf("refused dial: %#v, want a *url.Error", err)
	}
	if errors.As(err, &status) {
		t.Fatalf("refused dial reads as a status: %v", err)
	}
}

// TestCallReusesItsConnection: every reply is read to its end whatever
// its status, so calls answered 200, 404 and 400 in turn share one
// keep-alive connection.
func TestCallReusesItsConnection(t *testing.T) {
	var calls, conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) % 3 {
		case 0:
			Write(w, http.StatusOK, map[string]bool{"ok": true})
		case 1:
			Write(w, http.StatusNotFound, map[string]string{"error": "unknown"})
		default:
			Write(w, http.StatusBadRequest, map[string]string{"error": "refused"})
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	transport := &http.Transport{}
	t.Cleanup(transport.CloseIdleConnections)
	client := &http.Client{Transport: transport}

	const n = 30
	var failed int
	for i := 0; i < n; i++ {
		if err := Call(context.Background(), client, http.MethodPost, srv.URL, map[string]int{"i": i}, nil, 0); err != nil {
			failed++
		}
	}
	if failed != 2*n/3 {
		t.Fatalf("%d of %d calls failed, want %d", failed, n, 2*n/3)
	}
	if c := conns.Load(); c != 1 {
		t.Fatalf("%d calls with mixed statuses opened %d connections, want 1", n, c)
	}
}
