package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/calibrate"
	"repro/internal/doccmd"
	"repro/internal/service"
)

// TestRejectedFlags: a flag the chosen backend would ignore is a usage
// error, reported before anything starts.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-speculate"}, "-speculate configures the distributed backend and needs -workers or -fleet"},
		{[]string{"-speculate-threshold", "3"}, "-speculate-threshold configures the distributed backend"},
		{[]string{"-recover-attempts", "3"}, "-recover-attempts configures the distributed backend"},
		{[]string{"-fleet-heartbeat", "1s"}, "-fleet-heartbeat configures the distributed backend"},
		{[]string{"-board-addr", "127.0.0.1:9190"}, "flag provided but not defined: -board-addr"},
		{[]string{"-board-advertise", "http://10.0.0.1:9190"}, "flag provided but not defined: -board-advertise"},
		{[]string{"-board-sync", "20ms"}, "-board-sync configures the distributed backend"},
		{[]string{"-fleet", "-slots", "4"}, "-slots sizes the in-process pool"},
		{[]string{"-workers", "http://127.0.0.1:9101", "-slots", "4"}, "-slots sizes the in-process pool"},
		{[]string{"-fleet", "-speculate-threshold", "3"}, "-speculate-threshold needs -speculate"},
		{[]string{"-telemetry-interval", "5s"}, "-telemetry-interval needs -telemetry"},
		{[]string{"-fleet", "-fleet-heartbeat", "-1s"}, "-fleet-heartbeat must be >= 0"},
		{[]string{"-addr", ":8080", "extra"}, `unexpected argument "extra"`},
		{[]string{"-stream"}, "flag provided but not defined: -stream"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range [][]string{
		{"-slots", "4", "-telemetry", "serve.ftdc", "-telemetry-interval", "5s"},
		{"-fleet", "-speculate", "-speculate-threshold", "3", "-fleet-heartbeat", "500ms"},
		{"-workers", "http://127.0.0.1:9101", "-recover-attempts", "-1", "-board-sync", "20ms"},
	} {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("parse %q: %v", args, err)
		}
	}
}

// TestRunDrainsOnCancel: run serves until its context is cancelled, then
// drains and returns nil.
func TestRunDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-slots", "1"}, io.Discard, io.Discard) }()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run = %v, want a clean drain", err)
	}
}

// TestDocCommandsParse parses every serve command line in README,
// DESIGN, CI and the verify notes against the real flags (see
// internal/doccmd).
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "../..", "serve", 6, func(args []string) error {
		_, err := parse(args, io.Discard)
		return err
	})
}

// TestAutosize serves a calibration store in process, as serve
// -calibration does: every auto-sized job comes back with a walker
// count the predictor chose, an uncalibrated problem is a 409, a
// latency target below the distribution's floor a 422, both are
// counted, and the drain saves the store with the live batches the
// solved jobs recorded.
func TestAutosize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calibration.json")
	st := calibrate.NewStore()
	if _, err := bench.SeedCalibration(context.Background(), st, bench.PaperWorkloads(bench.ScaleTiny)["costas"], 11); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	base, drain := serveInProcess(t, "-slots", "4", "-calibration", path)

	const jobs = 30
	next, errs := make(chan int), make(chan error, jobs)
	for range 4 {
		go func() {
			for i := range next {
				var job service.Job
				code, body, err := fetch(base+"/v1/solve", map[string]any{
					"problem": "costas", "size": 10, "autosize": map[string]any{},
					"seed": i + 1, "timeout_ms": 15000, "wait": true,
				}, &job)
				switch {
				case err != nil:
				case code != http.StatusOK || job.State == service.StateFailed:
					err = fmt.Errorf("job %d: status %d: %s", i, code, body)
				case job.Request.Walkers < 1:
					// The request carried no walker count.
					err = fmt.Errorf("job %d echoes walkers = %d, want a predictor-chosen count >= 1", i, job.Request.Walkers)
				}
				errs <- err
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	for range jobs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	for _, tc := range []struct {
		req  map[string]any
		code int
		want string
	}{
		{map[string]any{"problem": "magic-square", "size": 5, "autosize": map[string]any{}}, http.StatusConflict, ""},
		{map[string]any{"problem": "costas", "size": 10, "autosize": map[string]any{"target_p95": "1us"}}, http.StatusUnprocessableEntity, "unsatisfiable"},
	} {
		if code, body := mustFetch(t, base+"/v1/solve", tc.req, nil); code != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("%v: status %d %s, want %d naming %q", tc.req, code, body, tc.code, tc.want)
		}
	}
	var stats service.Stats
	mustFetch(t, base+"/metrics", nil, &stats)
	if stats.AutoSized < jobs || stats.AutoRejected < 1 {
		t.Errorf("autosize_predictions %d, autosize_rejections %d: want >= %d and >= 1", stats.AutoSized, stats.AutoRejected, jobs)
	}

	drain()
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(saved, []byte(`"source": "live"`)) {
		t.Errorf("the drained store holds no live batch:\n%s", saved)
	}
}

// serveInProcess runs serve's run on a free loopback port until drain
// cancels it, and returns its base URL once /healthz answers. A port
// another process took first is retried with a fresh one. drain fails
// t unless run returns nil, as it does on a clean drain; a test that
// does not call it drains at cleanup.
func serveInProcess(t *testing.T, args ...string) (base string, drain func()) {
	t.Helper()
	for range 5 {
		addr := freeAddr(t)
		ctx, cancel := context.WithCancel(context.Background())
		var runErr error
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			runErr = run(ctx, append([]string{"-addr", addr}, args...), io.Discard, io.Discard)
		}()
		drain := sync.OnceFunc(func() {
			cancel()
			<-exited
			if runErr != nil {
				t.Errorf("serve: %v, want a clean drain", runErr)
			}
		})
		if ready(t, "http://"+addr, exited) {
			t.Cleanup(drain)
			return "http://" + addr, drain
		}
		cancel()
		if !errors.Is(runErr, syscall.EADDRINUSE) {
			t.Fatalf("serve: %v", runErr)
		}
	}
	t.Fatal("serve: no free port in 5 tries")
	return "", nil
}

// freeAddr reserves a loopback port and releases it for the caller to
// listen on. Another process can take it in between, so every caller
// retries with a fresh one when its listen fails.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// ready polls base's /healthz until it answers 200, and reports false
// if exited closes first: the server stopped before it served.
func ready(t *testing.T, base string, exited <-chan struct{}) bool {
	t.Helper()
	up := false
	poll(t, base+" to serve /healthz", func() bool {
		select {
		case <-exited:
			return true
		default:
		}
		code, _, err := fetch(base+"/healthz", nil, nil)
		up = err == nil && code == http.StatusOK
		return up
	})
	return up
}

// pollBound caps every wait on a condition.
const pollBound = 3 * time.Minute

// poll checks cond every few milliseconds until it holds, and fails t
// if pollBound passes first.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(pollBound)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("waited %v for %s", pollBound, what)
		}
	}
}

// client sends every test request; its timeout outlasts a long-poll.
var client = &http.Client{Timeout: time.Minute}

// fetch POSTs body as JSON to url, or GETs url when body is nil, and
// decodes a 2xx reply into v when v is non-nil. It returns the status
// and the reply's bytes.
func fetch(url string, body, v any) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url)
	} else {
		buf, merr := json.Marshal(body)
		if merr != nil {
			return 0, nil, merr
		}
		resp, err = client.Post(url, "application/json", bytes.NewReader(buf))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(reply, v); err != nil {
			return resp.StatusCode, reply, fmt.Errorf("%s: %w: %s", url, err, reply)
		}
	}
	return resp.StatusCode, reply, nil
}

// mustFetch is fetch that fails t on a transport or decoding error.
func mustFetch(t *testing.T, url string, body, v any) (int, []byte) {
	t.Helper()
	code, reply, err := fetch(url, body, v)
	if err != nil {
		t.Fatal(err)
	}
	return code, reply
}
