package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
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

	if r.refresh("http://unknown", 1, now) {
		t.Fatal("register of an unknown worker refreshed without a probe")
	}
	if r.refresh("http://a", 8, now) {
		t.Fatal("register claiming new slots refreshed without a probe")
	}
	r.reportFailure(w)
	if !r.refresh("http://a", 4, now) {
		t.Fatal("register of a known worker not refreshed")
	}
	if w.state != stateHealthy || r.capacity() != 4 {
		t.Fatalf("refresh did not revive: state %v capacity %d", w.state, r.capacity())
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
// table, a repeated register (the heartbeat: no probe), the retired
// heartbeat route, strict bodies, and graceful deregistration.
func TestFleetRegistrationLifecycle(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 3})
	wkSrv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { wkSrv.Close(); wk.Close() })

	coord, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: -1})
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

	// A register from a known worker claiming its enrolled slots is the
	// heartbeat: it refreshes without probing back.
	probes := coord.BackendMetrics()["fleet_probes"]
	if resp := post("/v1/fleet/register", RegisterRequest{URL: wkSrv.URL, Slots: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated register: status %d", resp.StatusCode)
	}
	if got := coord.BackendMetrics()["fleet_probes"]; got != probes {
		t.Fatalf("repeated register probed: fleet_probes %d, want %d", got, probes)
	}
	// The heartbeat route is gone: an agent from before answers 404 and
	// goes on registering.
	if resp := post("/v1/fleet/heartbeat", RegisterRequest{URL: wkSrv.URL, Slots: 3}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat: status %d, want 404", resp.StatusCode)
	}
	// Data after the body is refused, as the run and solve bodies refuse it.
	trailing := `{"url":"` + wkSrv.URL + `","slots":3}{"url":"http://nobody.invalid:1"}`
	resp, err = http.Post(fleetSrv.URL+"/v1/fleet/register", "application/json", strings.NewReader(trailing))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register followed by a second object: status %d, want 400", resp.StatusCode)
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

	coord, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: -1})
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

// TestProbeTimeoutIsPerProbe: every health probe carries its own
// probeTimeout bound, independent of any job deadline or caller: at
// static enrollment, at the register probe-back (whose caller's own
// deadline is much shorter) and at the monitor's sweep. The hook reads
// each probe's deadline and fails the probe at once, a worker that
// does not answer.
func TestProbeTimeoutIsPerProbe(t *testing.T) {
	var budgets []time.Duration // deadline minus send time, a probe
	hook := func(r *http.Request) error {
		budget := time.Duration(-1)
		if dl, ok := r.Context().Deadline(); ok {
			budget = time.Until(dl)
		}
		budgets = append(budgets, budget) // probes here are one at a time
		return errDropped
	}
	client := &http.Client{Transport: &memNet{hook: hook}}
	if _, err := NewCoordinator(CoordinatorConfig{Workers: []string{"http://w0"}, Client: client}); err == nil {
		t.Fatal("unreachable worker enrolled")
	}

	coord, err := NewCoordinator(CoordinatorConfig{Client: client, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout/10)
	defer cancel()
	rec := httptest.NewRecorder()
	coord.FleetHandler().ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/fleet/register", strings.NewReader(`{"url":"http://w0"}`)))
	if rec.Code == http.StatusOK {
		t.Fatal("unreachable worker enrolled")
	}
	if coord.Slots() != 0 {
		t.Fatalf("unreachable worker counted: %d slots", coord.Slots())
	}

	// A worker not heard from within one interval is probed by the
	// next sweep (with the monitor off, every worker is overdue).
	coord.reg.upsert("http://w0", 1, time.Now())
	coord.sweep()
	if ws := coord.Workers(); len(ws) != 1 || ws[0].State != "suspect" {
		t.Fatalf("after a failed sweep probe: %+v, want one suspect worker", ws)
	}

	if len(budgets) != 3 {
		t.Fatalf("%d probes, want 3 (enrollment, probe-back, sweep)", len(budgets))
	}
	for i, b := range budgets {
		if b <= probeTimeout/2 || b > probeTimeout {
			t.Fatalf("probe %d was given %v, want its own bound of %v", i, b, probeTimeout)
		}
	}
}

// TestDispatchRevalidatesWorker covers the stale-capability window: a
// worker that dies between plan time and dispatch time must be caught
// by the registry re-check — the shard reports lost (feeding recovery)
// without a doomed HTTP round trip, and the failover counter moves.
func TestDispatchRevalidatesWorker(t *testing.T) {
	var runs atomic.Int64
	countRuns := func(r *http.Request) error {
		if kind, _, _ := fleetCall(r); kind == "run" {
			runs.Add(1)
		}
		return nil
	}
	coord := newMemFleet(t, CoordinatorConfig{HeartbeatInterval: -1}, countRuns, 2)

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
	if n := runs.Load(); n != 0 {
		t.Fatalf("dispatch hit a dead worker %d times", n)
	}
	if got := coord.BackendMetrics()["dispatch_failovers"]; got != 1 {
		t.Fatalf("dispatch_failovers = %d, want 1", got)
	}
}

// runReplyNet answers every run sent to w0 with body, and its probes
// from a real worker; read counts the run-reply bytes the coordinator
// takes.
type runReplyNet struct {
	memNet
	body io.Reader
	read int64
}

func (n *runReplyNet) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v1/run" {
		return n.memNet.RoundTrip(r)
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(n)}, nil
}

func (n *runReplyNet) Read(p []byte) (int, error) {
	k, err := n.body.Read(p)
	n.read += int64(k)
	return k, err
}

// blanks reads as endless JSON whitespace.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRunReplyCap: the coordinator reads a run reply up to what the
// shard can return — a stat a walker, each with a solution of up to
// maxInitialConfig values — and no further. A worker whose reply runs
// past the cap has it refused after cap+1 bytes, and its shard is lost
// as a dropped one is; the largest legitimate reply still reads.
func TestRunReplyCap(t *testing.T) {
	runOne := func(body io.Reader) (shardOutcome, int64) {
		t.Helper()
		wk := NewWorker(WorkerConfig{Slots: 1})
		t.Cleanup(wk.Close)
		n := &runReplyNet{memNet: memNet{hosts: map[string]http.Handler{"w0": wk.Handler()}}, body: body}
		coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{"http://w0"}, Client: &http.Client{Transport: n}, HeartbeatInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		a := assignment{worker: coord.reg.workers[0], count: 1, reserved: 1, runID: "capped"}
		out := coord.runShard(context.Background(), &a, RunRequest{
			ID: a.runID, Mode: ModeRun, Problem: "queens", Size: 8,
			TotalWalkers: 1, Count: 1, Engine: core.Options{MaxIterations: 10, MaxRuns: 1},
		})
		return out, n.read
	}

	limit := runReplyCap(1)
	out, read := runOne(io.MultiReader(strings.NewReader(`{"stats":[`), io.LimitReader(blanks{}, limit+1<<20)))
	if !out.lost || out.err != nil {
		t.Errorf("a reply 1 MiB over the %d-byte cap: %+v, want the shard lost", limit, out)
	}
	if read > limit+1 {
		t.Errorf("the coordinator read %d bytes of a reply over the cap, want at most %d", read, limit+1)
	}

	// The largest reply a one-walker shard makes: every number at its
	// widest, and a solution of maxInitialConfig seven-digit values.
	solution := make([]int, maxInitialConfig)
	for i := range solution {
		solution[i] = maxInitialConfig
	}
	const wide = math.MinInt64
	res := multiwalk.Result{
		Walkers: []multiwalk.WalkerStat{{
			Result: core.Result{
				Solved: true, Solution: solution, Cost: wide, Iterations: wide, Swaps: wide,
				Assigns: wide, Flips: wide, LocalMinima: wide, PlateauEscapes: wide, Resets: wide,
				Restarts: wide, Interrupted: true, Elapsed: wide,
			},
			Adoptions: wide, Yielded: true,
		}},
		Completed: wide, Truncated: true, Elapsed: wide,
	}
	reply := (*runReply)(&res).AppendJSON(nil)
	if int64(len(reply)) > limit {
		t.Fatalf("the widest one-walker reply is %d bytes, over its %d-byte cap", len(reply), limit)
	}
	out, _ = runOne(bytes.NewReader(reply))
	if out.lost || out.err != nil || len(out.res.Walkers) != 1 || len(out.res.Walkers[0].Result.Solution) != maxInitialConfig {
		t.Errorf("the widest one-walker reply: lost %v, err %v, %d walkers; want it read", out.lost, out.err, len(out.res.Walkers))
	}
}

// TestStaticWorkerURLIsNormalized: a static worker URL is read as a
// registered one is: validated, and keyed without its trailing slash.
// Enrolled verbatim as "http://w0/" (its probe follows the mux's
// redirect), a worker is sent every run at //v1/run, which the mux
// redirects into a GET and answers 405, and every job comes back
// truncated with no error. The registered spelling of the same worker
// is the same registry row.
func TestStaticWorkerURLIsNormalized(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 2})
	t.Cleanup(wk.Close)
	client := &http.Client{Transport: &memNet{hosts: map[string]http.Handler{"w0": wk.Handler()}}}
	if _, err := NewCoordinator(CoordinatorConfig{Workers: []string{"w0"}, Client: client}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("static worker URL with no scheme: %v, want ErrBadRequest", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{"http://w0/"}, Client: client, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	res, err := coord.Run(context.Background(), JobSpec{Problem: "queens", Size: 16, Walkers: 2, Seed: 1, Engine: tunedEngine(t, "queens", 16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Completed != 2 || !res.Solved {
		t.Fatalf("job on a worker enrolled with a trailing slash: %+v", res)
	}
	rec := httptest.NewRecorder()
	coord.FleetHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/register", strings.NewReader(`{"url":"http://w0","slots":2}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d", rec.Code)
	}
	if ws := coord.Workers(); len(ws) != 1 || ws[0].URL != "http://w0" {
		t.Fatalf("one worker, two spellings: %+v", ws)
	}
}

// TestShardRecoveryDeterminism is the acceptance matrix for elastic
// recovery: for two problems, a fleet that
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
		{"all-interval", 24, core.StrategyAdaptive},
	}
	for _, tc := range cases {
		t.Run(tc.problem+"/"+tc.strat, func(t *testing.T) {
			engine := tunedEngine(t, tc.problem, tc.size)
			engine.Strategy = tc.strat
			engine.MaxIterations = 1500
			engine.MaxRuns = 1
			job := JobSpec{Problem: tc.problem, Size: tc.size, Walkers: 4, Seed: 1234, Engine: engine}

			// Ground truth: a fleet that never fails.
			want, err := newMemFleet(t, CoordinatorConfig{}, nil, 2, 2).Run(context.Background(), job)
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
			// drops the connection.
			coord := newMemFleet(t, CoordinatorConfig{HeartbeatInterval: -1}, losesRuns("w0"), 2, 2, 2)

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
	cfg := CoordinatorConfig{BoardSync: 2 * time.Millisecond, HeartbeatInterval: -1}
	coord := newMemFleet(t, cfg, losesRuns("w0"), 1, 2)

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

// TestFleetAgentReusesItsConnection: the agent reads every coordinator
// reply to its end, so all its registers travel on one keep-alive
// connection. Closing a reply unread makes the client drop the
// connection, and each register then dials a new one. (The deregister
// is not counted: it follows the last register at once, and the client
// hands a read-out connection back to its pool from another goroutine,
// so it may race a fresh dial.)
func TestFleetAgentReusesItsConnection(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 1})
	wkSrv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { wkSrv.Close(); wk.Close() })

	coord, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	var registers, conns atomic.Int64
	fleet := coord.FleetHandler()
	fleetSrv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/register" {
			registers.Add(1)
		}
		fleet.ServeHTTP(w, r)
	}))
	fleetSrv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	fleetSrv.Start()
	t.Cleanup(fleetSrv.Close)

	transport := &http.Transport{}
	t.Cleanup(transport.CloseIdleConnections)
	agent, err := NewFleetAgent(AgentConfig{
		Coordinator: fleetSrv.URL,
		Advertise:   wkSrv.URL,
		Worker:      wk,
		Interval:    5 * time.Millisecond,
		Client:      &http.Client{Transport: transport},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	deadline := time.Now().Add(5 * time.Second)
	for registers.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d registers in 5s", registers.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c, beats := conns.Load(), registers.Load()
	agent.Close()
	if ws := coord.Workers(); len(ws) != 1 || ws[0].State != "draining" {
		t.Fatalf("the deregister did not land: %+v", ws)
	}
	if c != 1 {
		t.Fatalf("%d registers opened %d connections, want 1", beats, c)
	}
}

// TestFleetAgentSurvivesCoordinatorRestart: a coordinator that restarts
// has forgotten its fleet. The agent's next register enrolls it again
// (one probe back), and every register after that is a heartbeat the
// new coordinator answers without probing.
func TestFleetAgentSurvivesCoordinatorRestart(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 2})
	wkSrv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { wkSrv.Close(); wk.Close() })

	newCoord := func() *Coordinator {
		coord, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		return coord
	}
	// One address, two coordinators in turn: the restart.
	var current atomic.Pointer[http.Handler]
	var registers atomic.Int64
	first := newCoord()
	h := first.FleetHandler()
	current.Store(&h)
	fleetSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/register" {
			registers.Add(1)
		}
		(*current.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(fleetSrv.Close)

	const interval = 10 * time.Millisecond
	agent, err := NewFleetAgent(AgentConfig{
		Coordinator: fleetSrv.URL,
		Advertise:   wkSrv.URL,
		Worker:      wk,
		Interval:    interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(interval / 2)
		}
	}
	waitFor("enrollment", func() bool { return first.Slots() == 2 })

	second := newCoord()
	h2 := second.FleetHandler()
	current.Store(&h2)
	swapped := time.Now()
	waitFor("re-enrollment", func() bool { return second.Slots() == 2 })
	if took := time.Since(swapped); took > 25*interval {
		t.Fatalf("re-enrollment took %v at a %v register interval", took, interval)
	}
	from := registers.Load()
	waitFor("20 more registers", func() bool { return registers.Load() >= from+20 })
	if got := second.BackendMetrics()["fleet_probes"]; got != 1 {
		t.Fatalf("fleet_probes = %d after re-enrollment and 20 registers, want 1", got)
	}
	if ws := second.Workers(); len(ws) != 1 || ws[0].State != "healthy" {
		t.Fatalf("after the restart: %+v", ws)
	}
}
