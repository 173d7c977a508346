package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multiwalk"
)

// callerTransport is a caller-supplied client's transport: it counts
// the CloseIdleConnections calls http.Client forwards to it, which a
// component must never make on a client it did not build.
type callerTransport struct {
	http.RoundTripper
	closed atomic.Int64
}

func (t *callerTransport) CloseIdleConnections() { t.closed.Add(1) }

// newCallerTransport wraps a real transport whose connections the test
// itself releases at cleanup, as the caller of a supplied client would.
func newCallerTransport(t *testing.T) *callerTransport {
	inner := &http.Transport{}
	t.Cleanup(inner.CloseIdleConnections)
	return &callerTransport{RoundTripper: inner}
}

// goroutineBaseline reads the goroutine count once it has held still
// for 50ms, so connections an earlier test is still tearing down are
// not counted into the baseline (and then mistaken for a release).
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// settleBound is how long settlesTo waits. Connection goroutines exit
// within milliseconds on an idle machine but can take over a second on
// a loaded one, so the bound is generous; it stays well under the
// coordinator's 90 s IdleConnTimeout, past which a leaked keep-alive
// connection would close on its own and the check could not fail.
const settleBound = 20 * time.Second

// settlesTo waits up to settleBound for the goroutine count to come
// back down to baseline (connection goroutines on both ends exit
// asynchronously once the client side closes).
func settlesTo(t *testing.T, what string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(settleBound)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s left goroutines behind: %d running, %d before it was built (keep-alive connections of its own HTTP client still open?)",
				what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseReleasesOwnedConnections: Close on a Coordinator releases
// the keep-alive connections of the HTTP client it built for itself —
// its peers stay up throughout, so nothing else would close them before
// the 90s idle timeout — and leaves a caller-supplied client alone; a
// Worker, which builds none, leaves nothing running.
func TestCloseReleasesOwnedConnections(t *testing.T) {
	engine := tunedEngine(t, "costas", 12)
	runJobs := func(coord *Coordinator) {
		t.Helper()
		for seed := uint64(1); seed <= 5; seed++ {
			if _, err := coord.Run(context.Background(), JobSpec{Problem: "costas", Size: 12, Walkers: 2, Seed: seed, Engine: engine}); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("coordinator", func(t *testing.T) {
		var urls []string
		for i := 0; i < 2; i++ {
			wk := NewWorker(WorkerConfig{Slots: 1})
			srv := httptest.NewServer(wk.Handler())
			t.Cleanup(func() { srv.Close(); wk.Close() })
			urls = append(urls, srv.URL)
		}
		baseline := goroutineBaseline()

		coord, err := NewCoordinator(CoordinatorConfig{Workers: urls})
		if err != nil {
			t.Fatal(err)
		}
		runJobs(coord)
		coord.Close()
		settlesTo(t, "Coordinator.Close", baseline)

		mine := newCallerTransport(t)
		coord, err = NewCoordinator(CoordinatorConfig{Workers: urls, Client: &http.Client{Transport: mine}})
		if err != nil {
			t.Fatal(err)
		}
		runJobs(coord)
		coord.Close()
		if n := mine.closed.Load(); n != 0 {
			t.Fatalf("Coordinator.Close closed the caller's Client (%d CloseIdleConnections calls)", n)
		}
	})

	t.Run("worker", func(t *testing.T) {
		// A worker builds no client: the coordinator's relay calls come
		// to it, as its run calls do. An exchange shard run leaves
		// nothing running once the worker closes.
		spec := engine
		spec.MaxIterations, spec.MaxRuns = 2000, 1
		runShard := func(wk *Worker, id string) {
			t.Helper()
			body, _ := json.Marshal(RunRequest{
				ID: id, Mode: ModeRun, Problem: "costas", Size: 12, Seed: 7,
				TotalWalkers: 1, Count: 1, Engine: spec,
				Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 16, AdoptFactor: 1},
			})
			rec := httptest.NewRecorder()
			wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("shard run: status %d: %s", rec.Code, rec.Body)
			}
		}
		baseline := goroutineBaseline()

		wk := NewWorker(WorkerConfig{Slots: 1})
		runShard(wk, "owned")
		wk.Close()
		settlesTo(t, "Worker.Close", baseline)
	})
}
