package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// memNet is a coordinator's network in one process: the RoundTripper
// of the coordinator's Client (the seam every fleet message crosses),
// serving each request from its host's handler. hook, when set, sees
// every request first and may hold it until an event, fail it, or pass
// it. A failed request reaches the caller as a *url.Error, as a dropped
// connection does, and one whose context ends while its handler runs
// returns the context's error, as a severed connection does. Faults are
// injected by ordering events, not by racing timers.
type memNet struct {
	hosts map[string]http.Handler
	hook  func(*http.Request) error
}

func (n *memNet) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	if n.hook != nil {
		if err := n.hook(r); err != nil {
			return nil, err
		}
	}
	h, ok := n.hosts[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memnet: no host %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, r.Clone(r.Context()))
	}()
	select {
	case <-done:
		return rec.Result(), nil
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
}

// errDropped is a hook's lost connection.
var errDropped = errors.New("memnet: connection dropped")

// hold blocks a request until ch closes (a nil ch: until the caller
// gives up) and fails it if the caller gives up first.
func hold(r *http.Request, ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

// fleetCall names a fleet request for a hook: its kind ("run",
// "cancel", "board" or "progress"; empty for a probe), the worker host
// it goes to, and the run id it concerns.
func fleetCall(r *http.Request) (kind, host, id string) {
	host = r.URL.Host
	rest, perRun := strings.CutPrefix(r.URL.Path, "/v1/runs/")
	switch {
	case r.URL.Path == "/v1/run":
		var req struct{ ID string }
		if r.GetBody != nil {
			if body, err := r.GetBody(); err == nil {
				_ = json.NewDecoder(body).Decode(&req)
			}
		}
		return "run", host, req.ID
	case perRun && strings.HasSuffix(rest, "/cancel"):
		return "cancel", host, strings.TrimSuffix(rest, "/cancel")
	case perRun && strings.HasSuffix(rest, "/board"):
		return "board", host, strings.TrimSuffix(rest, "/board")
	case perRun:
		return "progress", host, rest
	}
	return "", host, ""
}

// losesRuns is a hook that drops every run sent to host: a worker that
// answers its probes and dies with each shard it is given.
func losesRuns(host string) func(*http.Request) error {
	return func(r *http.Request) error {
		if kind, h, _ := fleetCall(r); kind == "run" && h == host {
			return errDropped
		}
		return nil
	}
}

// holdsRunsUntilCancelled is a hook that holds every run sent to host
// until a cancel for host arrives, and then passes it (then == nil) or
// fails it with then: a straggler whose shard makes no progress until
// the coordinator gives up on it.
func holdsRunsUntilCancelled(host string, then error) func(*http.Request) error {
	cancelled := make(chan struct{})
	var once sync.Once
	return func(r *http.Request) error {
		switch kind, h, _ := fleetCall(r); {
		case h != host:
		case kind == "run":
			if err := hold(r, cancelled); err != nil {
				return err
			}
			return then
		case kind == "cancel":
			once.Do(func() { close(cancelled) })
		}
		return nil
	}
}

// newMemFleet builds one in-process worker a slots entry, w0, w1, …
// on one memNet with hook, and a coordinator over them with cfg that
// enrolls them in that order.
func newMemFleet(t *testing.T, cfg CoordinatorConfig, hook func(*http.Request) error, slots ...int) *Coordinator {
	t.Helper()
	n := &memNet{hosts: make(map[string]http.Handler), hook: hook}
	for i, s := range slots {
		wk := NewWorker(WorkerConfig{Slots: s})
		t.Cleanup(wk.Close)
		host := fmt.Sprintf("w%d", i)
		n.hosts[host] = wk.Handler()
		cfg.Workers = append(cfg.Workers, "http://"+host)
	}
	cfg.Client = &http.Client{Transport: n}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// armedTimer is one timer a job loop armed on a fake clock: its
// duration, and the channel that fires it.
type armedTimer struct {
	d    time.Duration
	fire chan<- time.Time
}

// fakeClock replaces coord's clock: every timer a job loop arms is
// handed to the test on the returned channel and fires only when the
// test sends on it. The channel holds more timers than any test here
// arms, so arming never blocks a loop.
func fakeClock(coord *Coordinator) <-chan armedTimer {
	armed := make(chan armedTimer, 16)
	coord.after = func(d time.Duration) <-chan time.Time {
		fire := make(chan time.Time)
		armed <- armedTimer{d, fire}
		return fire
	}
	return armed
}

// ticksNow makes coord's straggler detector tick the moment it arms a
// tick, instead of after SpeculateAfter or SpeculateInterval; the grace
// timer and an exchange job's relay keep real time.
func ticksNow(coord *Coordinator) {
	coord.after = func(d time.Duration) <-chan time.Time {
		if d == cancelGrace || d == coord.boardSync {
			return time.After(d)
		}
		now := make(chan time.Time, 1)
		now <- time.Time{}
		return now
	}
}
