package profiling

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeAndStop(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		stop()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine profile:") {
		stop()
		t.Fatalf("goroutine profile: status %d, body %.80q", resp.StatusCode, body)
	}
	stop()
	if resp, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Fatal("the listener still answers after stop")
	}
	if _, _, err := Serve("not-an-address"); err == nil {
		t.Fatal("Serve accepted an unusable address")
	}
}
