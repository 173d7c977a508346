package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
)

// TestRegistryStateMachine pins the worker lifecycle: healthy on join,
// suspect on the first failure, dead on the second, revived by a
// successful probe, draining on deregister — and the capacity /
// dispatchability consequences of each state.
func TestRegistryStateMachine(t *testing.T) {
	r := newRegistry()
	now := time.Now()
	if !r.upsert("http://a", 4, now) {
		t.Fatal("first upsert reported no change")
	}
	w := r.workers[0]
	if r.capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", r.capacity())
	}
	if !r.dispatchable(w) {
		t.Fatal("healthy worker not dispatchable")
	}

	r.reportFailure(w)
	if w.state != stateSuspect {
		t.Fatalf("after one failure: %v, want suspect", w.state)
	}
	if r.capacity() != 4 {
		t.Fatal("suspect worker must still count toward capacity")
	}
	if !r.dispatchable(w) {
		t.Fatal("suspect worker must stay dispatchable")
	}

	r.reportFailure(w)
	if w.state != stateDead {
		t.Fatalf("after two failures: %v, want dead", w.state)
	}
	if r.capacity() != 0 {
		t.Fatal("dead worker still counts toward capacity")
	}
	if r.dispatchable(w) {
		t.Fatal("dead worker dispatchable")
	}

	r.probeOK(w, 4, now)
	if w.state != stateHealthy {
		t.Fatalf("probe did not revive: %v", w.state)
	}

	if r.heartbeat("http://unknown", 1, false, now) {
		t.Fatal("heartbeat for unknown worker accepted")
	}
	if !r.heartbeat("http://a", 8, false, now) {
		t.Fatal("heartbeat for known worker rejected")
	}
	if r.capacity() != 8 {
		t.Fatalf("heartbeat did not refresh slots: capacity %d", r.capacity())
	}

	if !r.deregister("http://a") {
		t.Fatal("deregister of known worker failed")
	}
	if w.state != stateDraining || r.capacity() != 0 {
		t.Fatalf("deregistered worker: state %v capacity %d", w.state, r.capacity())
	}
	if got := r.stale(0, now.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("draining worker probed by the monitor: %v", got)
	}
	// Rejoin under the same URL keeps the row (stable planning index).
	r.upsert("http://a", 4, now)
	if w.state != stateHealthy || r.size() != 1 {
		t.Fatalf("rejoin: state %v, %d rows", w.state, r.size())
	}
}

// TestFleetRegistrationLifecycle drives the coordinator's HTTP fleet
// endpoints end to end: register (with the probe-back), the membership
// table, heartbeats — including the 404 that cues re-registration —
// and graceful deregistration.
func TestFleetRegistrationLifecycle(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 3})
	wkSrv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { wkSrv.Close(); wk.Close() })

	coord, err := NewCoordinator(CoordinatorConfig{Dynamic: true, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	fleetSrv := httptest.NewServer(coord.FleetHandler())
	t.Cleanup(fleetSrv.Close)

	post := func(path string, body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(fleetSrv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if coord.Slots() != 0 {
		t.Fatalf("empty dynamic fleet reports %d slots", coord.Slots())
	}
	if resp := post("/v1/fleet/register", RegisterRequest{URL: wkSrv.URL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	if coord.Slots() != 3 {
		t.Fatalf("after register: %d slots, want 3 (probed back)", coord.Slots())
	}
	// A worker from before the capability fields were retired still
	// announces them: rejected as an unknown field, not half-understood.
	if resp := post("/v1/fleet/register", map[string]any{"url": wkSrv.URL, "slots": 3, "wire": true, "stream": true}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register carrying wire/stream: status %d, want 400", resp.StatusCode)
	}

	var table struct {
		Workers []WorkerInfo `json:"workers"`
	}
	resp, err := http.Get(fleetSrv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(table.Workers) != 1 || table.Workers[0].State != "healthy" || table.Workers[0].Slots != 3 {
		t.Fatalf("fleet table: %+v", table.Workers)
	}

	if resp := post("/v1/fleet/heartbeat", HeartbeatRequest{URL: "http://nobody.invalid:1"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: status %d, want 404 (re-register cue)", resp.StatusCode)
	}
	if resp := post("/v1/fleet/heartbeat", HeartbeatRequest{URL: wkSrv.URL, Slots: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("known heartbeat: status %d", resp.StatusCode)
	}

	if resp := post("/v1/fleet/deregister", map[string]string{"url": wkSrv.URL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	if coord.Slots() != 0 {
		t.Fatalf("draining worker still counted: %d slots", coord.Slots())
	}
	if ws := coord.Workers(); len(ws) != 1 || ws[0].State != "draining" {
		t.Fatalf("after deregister: %+v", ws)
	}
}

// TestFleetAgentLifecycle runs the worker-side agent against a real
// coordinator: enrollment (with retry until the heartbeat loop is up),
// capacity-change notification into the serving layer's callback, and
// drain-on-close.
func TestFleetAgentLifecycle(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 2})
	wkSrv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { wkSrv.Close(); wk.Close() })

	coord, err := NewCoordinator(CoordinatorConfig{Dynamic: true, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	fleetSrv := httptest.NewServer(coord.FleetHandler())
	t.Cleanup(fleetSrv.Close)

	notified := make(chan struct{}, 16)
	coord.NotifyCapacity(func() {
		select {
		case notified <- struct{}{}:
		default:
		}
	})

	agent, err := NewFleetAgent(AgentConfig{
		Coordinator: fleetSrv.URL,
		Advertise:   wkSrv.URL,
		Worker:      wk,
		Interval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (fleet: %+v)", what, coord.Workers())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("enrollment", func() bool { return coord.Slots() == 2 })
	select {
	case <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("capacity callback never fired on join")
	}

	agent.Close()
	waitFor("drain", func() bool {
		ws := coord.Workers()
		return len(ws) == 1 && ws[0].State == "draining"
	})
	if coord.Slots() != 0 {
		t.Fatalf("drained worker still counted: %d slots", coord.Slots())
	}
}

// hungWorker answers nothing: every request stalls until the client
// gives up. It stands in for a worker wedged hard enough that even
// /healthz hangs.
func hungWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(30 * time.Second):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestProbeTimeoutIsPerProbe: a hung worker's health probe must fail
// within ProbeTimeout — independent of any job deadline — both at
// static enrollment and on the dynamic registration path.
func TestProbeTimeoutIsPerProbe(t *testing.T) {
	hung := hungWorker(t)

	start := time.Now()
	if _, err := NewCoordinator(CoordinatorConfig{
		Workers:      []string{hung.URL},
		ProbeTimeout: 50 * time.Millisecond,
	}); err == nil {
		t.Fatal("hung worker enrolled")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("static enrollment probe not bounded by ProbeTimeout: took %v", el)
	}

	coord, err := NewCoordinator(CoordinatorConfig{
		Dynamic:           true,
		ProbeTimeout:      50 * time.Millisecond,
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	fleetSrv := httptest.NewServer(coord.FleetHandler())
	t.Cleanup(fleetSrv.Close)

	raw, _ := json.Marshal(RegisterRequest{URL: hung.URL})
	start = time.Now()
	resp, err := http.Post(fleetSrv.URL+"/v1/fleet/register", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("register probe-back not bounded by ProbeTimeout: took %v", el)
	}
	if resp.StatusCode == http.StatusOK {
		t.Fatal("unreachable worker enrolled")
	}
	if coord.Slots() != 0 {
		t.Fatalf("hung worker counted: %d slots", coord.Slots())
	}
}

// TestDispatchRevalidatesWorker covers the stale-capability window: a
// worker that dies between plan time and dispatch time must be caught
// by the registry re-check — the shard reports lost (feeding recovery)
// without a doomed HTTP round trip, and the failover counter moves.
func TestDispatchRevalidatesWorker(t *testing.T) {
	runs := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "slots": 2})
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		runs++
		http.Error(w, "should never be reached", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// The plan-time snapshot said healthy; the worker dies before the
	// shard goes out.
	w := coord.reg.workers[0]
	coord.reg.reportFailure(w)
	coord.reg.reportFailure(w)

	a := assignment{worker: w, start: 0, count: 1, reserved: 1, runID: "stale-1"}
	out := coord.runShard(context.Background(), &a, RunRequest{
		ID: a.runID, Mode: ModeRun, Problem: "queens", Size: 8,
		TotalWalkers: 1, Count: 1, Engine: core.Options{MaxIterations: 10, MaxRuns: 1},
	})
	if !out.lost || out.err != nil {
		t.Fatalf("dead-at-dispatch shard: %+v, want lost", out)
	}
	if runs != 0 {
		t.Fatalf("dispatch hit a dead worker %d times", runs)
	}
	if got := coord.BackendMetrics()["dispatch_failovers"]; got != 1 {
		t.Fatalf("dispatch_failovers = %d, want 1", got)
	}
}

// TestShardRecoveryDeterminism is the acceptance matrix for elastic
// recovery: for several problem x strategy combinations, a fleet that
// loses a worker mid-run re-executes the lost shard on the survivors
// and produces a result bit-for-bit identical to a fleet that never
// failed — global walker identity makes the re-run exact, so worker
// loss is invisible in the statistics (Truncated=false, no walker
// missing, no cost fabricated).
func TestShardRecoveryDeterminism(t *testing.T) {
	cases := []struct {
		problem string
		size    int
		strat   string
	}{
		{"costas", 16, core.StrategyAdaptive},
		{"costas", 16, core.StrategyMetropolis},
		{"costas", 16, core.StrategyRandomWalk},
		{"all-interval", 24, core.StrategyMetropolis},
	}
	for _, tc := range cases {
		t.Run(tc.problem+"/"+tc.strat, func(t *testing.T) {
			engine := tunedEngine(t, tc.problem, tc.size)
			engine.Strategy = tc.strat
			engine.MaxIterations = 1500
			engine.MaxRuns = 1
			job := JobSpec{Problem: tc.problem, Size: tc.size, Walkers: 4, Seed: 1234, Engine: engine}

			// Ground truth: a fleet that never fails.
			baseline := newFleet(t, 2, 2)
			want, err := baseline.coord.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if want.Solved {
				// First-solution cancellation interrupts the losers at
				// wall-clock-dependent points; the bit-for-bit contract
				// only holds for budget-bounded unsolved runs.
				t.Fatalf("precondition: instance solved within budget; pick a harder one")
			}

			// Lossy fleet: the first worker takes walkers [0,2) and
			// drops the connection mid-run.
			started := make(chan struct{}, 1)
			lossy := lossyWorker(t, 2, started)
			survivorA := NewWorker(WorkerConfig{Slots: 2})
			srvA := httptest.NewServer(survivorA.Handler())
			survivorB := NewWorker(WorkerConfig{Slots: 2})
			srvB := httptest.NewServer(survivorB.Handler())
			t.Cleanup(func() { srvA.Close(); survivorA.Close(); srvB.Close(); survivorB.Close() })

			coord, err := NewCoordinator(CoordinatorConfig{
				Workers:           []string{lossy.URL, srvA.URL, srvB.URL},
				HeartbeatInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coord.Close)

			got, err := coord.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if got.Truncated {
				t.Fatalf("recoverable worker loss still truncated: %+v", got)
			}
			if got.Completed != 4 || len(got.Walkers) != 4 {
				t.Fatalf("recovered run incomplete: %d completed of %d stats", got.Completed, len(got.Walkers))
			}
			sameWalkers(t, tc.problem+"/"+tc.strat, want.Walkers, got.Walkers)
			m := coord.BackendMetrics()
			if m["shards_lost"] < 1 || m["shards_recovered"] < 1 || m["walkers_recovered"] < 2 {
				t.Fatalf("recovery not visible in metrics: %v", m)
			}
			if m["jobs_truncated_by_loss"] != 0 {
				t.Fatalf("recovered job counted as truncated: %v", m)
			}
		})
	}
}

// TestShardRecoveryExchangeInvariants: recovery under the dependent
// (exchange) scheme cannot be bit-for-bit — adoptions depend on
// wall-clock interleaving — so the contract is invariant-pinned: the
// recovered run is un-truncated, every walker ran and reports a real
// cost, and the recovery is visible in the metrics.
func TestShardRecoveryExchangeInvariants(t *testing.T) {
	started := make(chan struct{}, 1)
	lossy := lossyWorker(t, 1, started)
	survivor := NewWorker(WorkerConfig{Slots: 2})
	srv := httptest.NewServer(survivor.Handler())
	t.Cleanup(func() { srv.Close(); survivor.Close() })

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           []string{lossy.URL, srv.URL},
		BoardSync:         2 * time.Millisecond,
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	engine := tunedEngine(t, "costas", 16)
	engine.MaxIterations = 2000
	engine.MaxRuns = 1
	engine.CheckEvery = 16
	res, err := coord.Run(context.Background(), JobSpec{
		Problem: "costas", Size: 16, Walkers: 3, Seed: 7, Engine: engine,
		Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 16, AdoptFactor: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("recoverable loss mid-exchange still truncated: %+v", res)
	}
	if res.Completed != 3 || len(res.Walkers) != 3 {
		t.Fatalf("recovered exchange run incomplete: %+v", res)
	}
	for _, ws := range res.Walkers {
		if ws.Result.Iterations == 0 || ws.Result.Cost == core.CostUnknown {
			t.Fatalf("walker %d carries no real work after recovery: %+v", ws.Walker, ws)
		}
	}
	if m := coord.BackendMetrics(); m["walkers_recovered"] < 1 {
		t.Fatalf("recovery not visible in metrics: %v", m)
	}
}
