package httpjson

import (
	"context"
	"errors"
	"io"
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
	if err := Decode(strings.NewReader(long), int64(len(long)), &m); err != nil {
		t.Fatalf("%d-byte body at a limit of its length: %v", len(long), err)
	}
	if err := Decode(strings.NewReader(long), 32, &m); err == nil {
		t.Errorf("%d-byte body accepted under a 32-byte limit", len(long))
	}
	// A valid object, padding past the limit and a second object: the
	// body is refused, not cut at the limit and read as the first.
	padded := `{"url":"http://a"}` + strings.Repeat(" ", 1<<10) + `{"url":"http://b"}`
	if err := Decode(strings.NewReader(padded), 1<<10, &m); err == nil || !strings.Contains(err.Error(), "body exceeds 1024 bytes") {
		t.Errorf("padded second object under a 1024-byte limit: %v", err)
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

// TestCallRefusesAnOverLimitReply: a 200 reply longer than the limit is
// an error naming the limit, every time, and is not read to its end, so
// each such call drops its connection; a reply at the limit reads.
func TestCallRefusesAnOverLimitReply(t *testing.T) {
	reply := `{"pad":"` + strings.Repeat("x", 110) + `"}` // 120 bytes with Write's newline
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)+1))
		_, _ = w.Write([]byte(reply + "\n"))
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

	var out struct {
		Pad string `json:"pad"`
	}
	for i := 0; i < 3; i++ {
		err := Call(context.Background(), client, http.MethodGet, srv.URL, nil, &out, 64)
		if err == nil || err.Error() != "reading the reply: reply exceeds 64 bytes" {
			t.Fatalf("call %d: 120-byte reply under a 64-byte limit: %v", i, err)
		}
	}
	if c := conns.Load(); c != 3 {
		t.Fatalf("3 refused replies opened %d connections, want 3", c)
	}
	if err := Call(context.Background(), client, http.MethodGet, srv.URL, nil, &out, int64(len(reply)+1)); err != nil || len(out.Pad) != 110 {
		t.Fatalf("reply at the limit: %q, %v", out.Pad, err)
	}
}

// echo is a message with its own codec: it appends {"n":N} unless N is
// negative, and reads only {"n":N} back, counting how often it did.
type echo struct {
	N    int `json:"n"`
	fast *int
}

func (e echo) AppendJSON(dst []byte) []byte {
	if e.N < 0 {
		return dst // declined: encoding/json writes it
	}
	return append(strconv.AppendInt(append(dst, `{"n":`...), int64(e.N), 10), '}')
}

func (e *echo) ReadJSON(data []byte) bool {
	lx := NewLexer(data)
	var n int
	ok := lx.Object(func(key []byte) (ok bool) {
		if string(key) == "n" {
			n, ok = lx.Int()
		}
		return ok
	})
	if !ok || !lx.End() {
		return false
	}
	e.N = n
	*e.fast++
	return true
}

// TestCallCodec: Call sends an Appender's own bytes and json.Marshal's
// for a value it declines, a []byte as it is, and offers a 200 reply to
// a FastReader before json.Unmarshal.
func TestCallCodec(t *testing.T) {
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf strings.Builder
		_, _ = io.Copy(&buf, r.Body)
		bodies = append(bodies, buf.String())
		_, _ = io.WriteString(w, r.URL.Query().Get("reply"))
	}))
	t.Cleanup(srv.Close)
	var fast int
	for _, tc := range []struct {
		in          echo
		body, reply string
		out         int
		byReader    bool
	}{
		{echo{N: 7}, `{"n":7}`, `{"n":3}`, 3, true},
		{echo{N: -7}, `{"n":-7}`, `{"n":3,"N":4}`, 4, false},
		{echo{N: 0}, `{"n":0}`, ` {"n" : 5} `, 5, true},
	} {
		bodies = bodies[:0]
		out := echo{fast: &fast}
		before := fast
		err := Call(context.Background(), srv.Client(), http.MethodPost, srv.URL+"?reply="+url.QueryEscape(tc.reply), tc.in, &out, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 1 || bodies[0] != tc.body {
			t.Errorf("%+v sent %q, want %q", tc.in, bodies, tc.body)
		}
		if out.N != tc.out || (fast > before) != tc.byReader {
			t.Errorf("reply %s read as %d (by the fast reader: %v), want %d (%v)", tc.reply, out.N, fast > before, tc.out, tc.byReader)
		}
	}
	// JSON the caller encoded goes as it is.
	bodies = bodies[:0]
	if err := Call(context.Background(), srv.Client(), http.MethodPost, srv.URL, []byte(` {"n":9}`), nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 1 || bodies[0] != ` {"n":9}` {
		t.Errorf("a []byte body sent as %q, want it as it is", bodies)
	}
}

// TestLexerFloat64: the JSON number grammar, read as encoding/json
// reads a float64, and nothing outside it.
func TestLexerFloat64(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"0", 0, true},
		{"-0", math.Copysign(0, -1), true},
		{"0.05", 0.05, true},
		{" 1E+2", 100, true},
		{"1e-2", 0.01, true},
		{"5e-324", 5e-324, true},
		{"-1.7976931348623157e308", -math.MaxFloat64, true},
		{"1e400", 0, false},
		{"-1e400", 0, false},
		{"01", 0, false},
		{"-", 0, false},
		{"1.", 0, false},
		{".5", 0, false},
		{"+1", 0, false},
		{"1e", 0, false},
		{"1e+", 0, false},
		{"1.5.2", 0, false},
		{"0x10", 0, false},
		{"Inf", 0, false},
		{"NaN", 0, false},
		{"1_0", 0, false},
	} {
		lx := NewLexer([]byte(tc.in))
		got, ok := lx.Float64()
		if ok && !lx.End() {
			ok = false
		}
		if ok != tc.ok || ok && math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("Float64(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		lx := NewLexer([]byte("0.061234567890123456"))
		_, _ = lx.Float64()
	}); allocs != 0 {
		t.Errorf("Float64 allocates %v times a number", allocs)
	}
}

// TestLexerObject: an object of up to MaxMembers distinct keys reads, a
// key seen twice and a longer object are refused.
func TestLexerObject(t *testing.T) {
	object := func(keys int, dup bool) []byte {
		b := []byte{'{'}
		for i := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			k := i
			if dup && i == keys-1 {
				k = 0
			}
			b = append(b, `"k`+strconv.Itoa(k)+`":1`...)
		}
		return append(b, '}')
	}
	for _, tc := range []struct {
		keys int
		dup  bool
		ok   bool
	}{
		{0, false, true},
		{MaxMembers, false, true},
		{MaxMembers + 1, false, false},
		{2, true, false},
		{MaxMembers, true, false},
	} {
		data := object(tc.keys, tc.dup)
		lx := NewLexer(data)
		m, ok := lx.IntMap()
		if ok = ok && lx.End(); ok != tc.ok || ok && len(m) != tc.keys {
			t.Errorf("%s: read %d members, %v; want %v", data, len(m), ok, tc.ok)
		}
	}
}
