package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/wire"
)

// fleet is a test harness: n in-process workers behind httptest
// servers plus a coordinator over them.
type fleet struct {
	workers []*Worker
	servers []*httptest.Server
	coord   *Coordinator
}

func newFleet(t testing.TB, slots ...int) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, 0, len(slots))
	for _, s := range slots {
		wk := NewWorker(WorkerConfig{Slots: s})
		srv := httptest.NewServer(wk.Handler())
		f.workers = append(f.workers, wk)
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.URL)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	t.Cleanup(func() {
		f.coord.Close()
		for i := range f.servers {
			f.servers[i].Close()
			f.workers[i].Close()
		}
	})
	return f
}

func tunedEngine(t *testing.T, name string, size int) core.Options {
	t.Helper()
	p, err := problems.New(name, size)
	if err != nil {
		t.Fatal(err)
	}
	return core.TunedOptions(p)
}

// sameWalkers asserts per-walker bit-for-bit equality modulo wall
// clock.
func sameWalkers(t *testing.T, label string, local, distd []multiwalk.WalkerStat) {
	t.Helper()
	if len(local) != len(distd) {
		t.Fatalf("%s: %d local walkers vs %d distributed", label, len(local), len(distd))
	}
	for w := range local {
		a, b := local[w], distd[w]
		a.Result.Elapsed, b.Result.Elapsed = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: walker %d diverged:\nlocal: %+v\ndist:  %+v", label, w, a, b)
		}
	}
}

// TestDistributedVirtualMatrix is the acceptance matrix: for 3
// problems, the distributed virtual run over a heterogeneous 3-worker
// fleet reproduces the single-process RunVirtual bit-for-bit — winner
// walker index, winner iterations, and every per-walker statistic.
func TestDistributedVirtualMatrix(t *testing.T) {
	f := newFleet(t, 2, 2, 1)
	problemsUnderTest := []struct {
		name string
		size int
	}{
		{"magic-square", 5},
		{"costas", 9},
		{"all-interval", 10},
	}
	const k = 5
	for _, pt := range problemsUnderTest {
		name := pt.name + "/" + core.StrategyAdaptive
		t.Run(name, func(t *testing.T) {
			engine := tunedEngine(t, pt.name, pt.size)
			engine.MaxIterations = 2000
			engine.MaxRuns = 1
			seed := uint64(0xC0FFEE) ^ uint64(len(pt.name))<<8 ^ uint64(len(core.StrategyAdaptive))

			factory, err := problems.NewFactory(pt.name, pt.size)
			if err != nil {
				t.Fatal(err)
			}
			local, err := multiwalk.RunVirtual(context.Background(), multiwalk.Factory(factory), multiwalk.Options{
				Walkers: k, Seed: seed, Engine: engine,
			})
			if err != nil {
				t.Fatal(err)
			}
			distd, err := f.coord.RunVirtual(context.Background(), JobSpec{
				Problem: pt.name, Size: pt.size, Walkers: k, Seed: seed, Engine: engine,
			})
			if err != nil {
				t.Fatal(err)
			}
			if local.Winner != distd.Winner || local.WinnerIterations != distd.WinnerIterations ||
				local.Solved != distd.Solved || local.TotalIterations != distd.TotalIterations ||
				local.Completed != distd.Completed || local.Truncated != distd.Truncated {
				t.Fatalf("aggregate diverged:\nlocal: %+v\ndist:  %+v", local, distd)
			}
			if !reflect.DeepEqual(local.Solution, distd.Solution) {
				t.Fatalf("solution diverged")
			}
			sameWalkers(t, name, local.Walkers, distd.Walkers)
		})
	}
}

// TestWorkerLossSurfacesAsTruncated covers the no-recovery contract
// (RecoverAttempts < 0, or no surviving capacity): losing a worker
// mid-run must yield a Truncated result whose lost walkers are
// explicitly Interrupted — never a fabricated complete run — while the
// surviving shard's stats are kept. Recovery-enabled fleets re-run the
// lost shard instead; see TestShardRecoveryDeterminism.
func TestWorkerLossSurfacesAsTruncated(t *testing.T) {
	// The second worker drops every shard it is given.
	coord := newMemFleet(t, CoordinatorConfig{RecoverAttempts: -1}, losesRuns("w1"), 2, 2)

	// An instance neither walker can solve inside its budget, so the
	// healthy shard always runs to completion unsolved.
	engine := tunedEngine(t, "costas", 16)
	engine.MaxIterations = 1500
	engine.MaxRuns = 1
	res, err := coord.Run(context.Background(), JobSpec{
		Problem: "costas", Size: 16, Walkers: 4, Seed: 99, Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatalf("worker loss did not surface as Truncated: %+v", res)
	}
	if res.Solved {
		t.Fatalf("lost run fabricated a solution: %+v", res)
	}
	if len(res.Walkers) != 4 {
		t.Fatalf("expected all 4 walker identities, got %d", len(res.Walkers))
	}
	if res.Completed != 2 {
		t.Fatalf("Completed = %d, want 2 (only the healthy shard ran)", res.Completed)
	}
	lost := 0
	for w, ws := range res.Walkers {
		if ws.Walker != w {
			t.Fatalf("walker %d carries global index %d", w, ws.Walker)
		}
		if ws.Result.Iterations == 0 {
			lost++
			if !ws.Result.Interrupted || ws.Result.Cost != core.CostUnknown {
				t.Fatalf("lost walker %d not marked empty+Interrupted: %+v", w, ws.Result)
			}
		}
	}
	if lost != 2 {
		t.Fatalf("expected 2 lost walkers, found %d", lost)
	}
}

// slotsBusy reads a worker's slots_busy from /healthz, or -1 when it
// cannot.
func slotsBusy(base string) int {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var h struct {
		Busy int `json:"slots_busy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return -1
	}
	return h.Busy
}

// TestMidRunCancelSurfacesAsTruncated: cancelling the coordinator's
// context mid-run yields Truncated, not a fabricated result, and the
// workers' slots drain.
func TestMidRunCancelSurfacesAsTruncated(t *testing.T) {
	f := newFleet(t, 2, 2)
	engine := tunedEngine(t, "costas", 18)
	engine.MaxRuns = 0 // unlimited restarts: only the context ends it
	engine.CheckEvery = 16
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel once the run is live on both workers (every slot busy), so
	// that the cancel lands mid-run however slow the box.
	var live atomic.Bool
	go func() {
		defer cancel()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); <-tick.C {
			if slotsBusy(f.servers[0].URL) == 2 && slotsBusy(f.servers[1].URL) == 2 {
				live.Store(true)
				return
			}
		}
	}()
	res, err := f.coord.Run(ctx, JobSpec{Problem: "costas", Size: 18, Walkers: 4, Seed: 5, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if !live.Load() {
		t.Fatal("the run never showed live on both workers")
	}
	if !res.Truncated || res.Solved {
		t.Fatalf("cancelled run: want Truncated unsolved, got %+v", res)
	}
	// The reservation release is synchronous with run() returning; the
	// worker side may need a beat for its handler to unwind.
	for _, wi := range f.coord.Workers() {
		if wi.Busy != 0 {
			t.Fatalf("coordinator slot leak: %+v", wi)
		}
	}
}

// TestWorkerRejectsOverCapacityAndDuplicates covers the worker-side
// guards a well-behaved coordinator never trips.
func TestWorkerRejectsOverCapacityAndDuplicates(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 1})
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { srv.Close(); wk.Close() })

	run := func(id string, count int) *http.Response {
		body, _ := json.Marshal(RunRequest{
			ID: id, Mode: ModeRun, Problem: "queens", Size: 16, Seed: 3,
			TotalWalkers: 4, Start: 0, Count: count,
			Engine: core.Options{MaxIterations: 500, MaxRuns: 1},
		})
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := run("over", 2); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity run: status %d, want 429", resp.StatusCode)
	}
	if resp := run("ok", 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-capacity run: status %d, want 200", resp.StatusCode)
	}
	// The first "ok" run has finished (the response arrived), so its id
	// is free again and a reuse is accepted; an *in-flight* duplicate is
	// exercised through the decode-level unit below instead, keeping
	// this test free of timing assumptions.
	resp := run("ok", 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sequential id reuse: status %d, want 200", resp.StatusCode)
	}

	// Regression: a shard whose start+count overflows int must die in
	// validation (400), not reach the run path and panic the handler
	// on a giant stats allocation.
	overflow := `{"id":"ovf","mode":"virtual","problem":"queens","size":8,"total_walkers":4,` +
		`"start":4611686018427387904,"count":4611686018427387904,"engine":{"max_iterations":100}}`
	oresp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(overflow))
	if err != nil {
		t.Fatalf("overflow request killed the connection: %v", err)
	}
	if oresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflow shard: status %d, want 400", oresp.StatusCode)
	}

	// A coordinator from before the binary dispatch was retired still
	// posts RunSpec frames: it must be told 400 (ErrBadRequest) at once,
	// never left hanging on a body the worker no longer reads.
	var enc wire.Encoder
	frame, err := enc.RunSpecFrame(nil, &wire.RunSpec{ID: "old", Mode: ModeRun, Problem: "queens", Size: 8, TotalWalkers: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresp, err := http.Post(srv.URL+"/v1/run", "application/x-repro-wire", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("wire-frame request killed the connection: %v", err)
	}
	var rejected struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(fresp.Body).Decode(&rejected)
	if fresp.StatusCode != http.StatusBadRequest || !strings.Contains(rejected.Error, ErrBadRequest.Error()) {
		t.Fatalf("wire-frame run request: status %d error %q, want 400 wrapping ErrBadRequest", fresp.StatusCode, rejected.Error)
	}
}

// TestDecodeRunRequestTypedErrors pins the decoder's typed-error
// contract (the fuzz target asserts the same property on arbitrary
// input).
func TestDecodeRunRequestTypedErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"id":"x","mode":"warp","problem":"queens","total_walkers":1,"count":1}`,
		`{"id":"x","mode":"run","problem":"no-such-problem","total_walkers":1,"count":1}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":2,"start":1,"count":2}`,
		// start+count overflows int; the range check must not wrap.
		`{"id":"x","mode":"virtual","problem":"queens","total_walkers":4,"start":4611686018427387904,"count":4611686018427387904}`,
		`{"id":"","mode":"run","problem":"queens","total_walkers":1,"count":1}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"strategy":"nope"}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"reset_fraction":2}}`,
		// JSON has no NaN: what comes closest is a decode error.
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"reset_fraction":NaN}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"reset_fraction":"NaN"}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"prob_select_loc_min":1e999}}`,
		// Out of range, checked by core.Options.Validate.
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"reset_fraction":-0.5}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"prob_select_loc_min":1.5}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"prob_select_loc_min":-1e-9}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"max_iterations":-1}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"check_every":-1}}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"exchange":{"enabled":true,"adopt_factor":0.5},"board":"http://b"}`,
		`{"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1,"exchange":{"enabled":true},"board":"http://b","board_sync_ms":-1}`,
		// Whatever follows the request is not ignored.
		`{"id":"x","mode":"run","problem":"costas","size":8,"total_walkers":1,"count":1}{"problem":"queens"}`,
		`{"id":"x","mode":"run","problem":"costas","size":8,"total_walkers":1,"count":1} trailing garbage`,
		// A body over the cap is refused, not cut short at the cap and
		// read as the request before it.
		`{"id":"x","mode":"run","problem":"costas","size":8,"total_walkers":1,"count":1}` +
			strings.Repeat(" ", maxRequestBodyLen) + `{"problem":"queens"}`,
	}
	for _, raw := range cases {
		if _, err := DecodeRunRequest(strings.NewReader(raw)); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("input %.100q: error %v does not wrap ErrBadRequest", raw, err)
		}
	}
	valid := `{"id":"x","mode":"virtual","problem":"queens","size":10,"total_walkers":3,"start":1,"count":2,"engine":{"max_iterations":100}}`
	if _, err := DecodeRunRequest(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// TestDecodeRunRequestUnknownFields: a run request carrying a field the
// protocol has retired is rejected with the field named, so a
// coordinator and a worker of different versions fail loudly instead of
// running with the retired setting at its default.
func TestDecodeRunRequestUnknownFields(t *testing.T) {
	const base = `"id":"x","mode":"run","problem":"queens","total_walkers":1,"count":1`
	for _, tc := range []struct {
		extra string
		field string
	}{
		{`"board_stream":"127.0.0.1:5678"`, "board_stream"},
		{`"board_job":"job000009"`, "board_job"},
		{`"progress_stream":"127.0.0.1:5678"`, "progress_stream"},
		{`"exchange":{"enabled":true,"period":64},"board":"http://b"`, "period"},
		{`"exchange":{"enabled":true,"sync_ms":2},"board":"http://b"`, "sync_ms"},
		{`"engine":{"max_iters":100}`, "max_iters"},
		{`"portfolio":[{"weight":1,"engine":{}}]`, "portfolio"},
	} {
		_, err := DecodeRunRequest(strings.NewReader("{" + base + "," + tc.extra + "}"))
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Errorf("%s: error %v, want ErrBadRequest naming %q", tc.extra, err, tc.field)
		}
	}
}

// TestCoordinatorRejectsUnplaceableJob: a job wider than the fleet's
// free capacity fails fast with ErrNoCapacity.
func TestCoordinatorRejectsUnplaceableJob(t *testing.T) {
	f := newFleet(t, 1, 1)
	engine := tunedEngine(t, "queens", 16)
	_, err := f.coord.Run(context.Background(), JobSpec{Problem: "queens", Size: 16, Walkers: 3, Seed: 1, Engine: engine})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("got %v, want ErrNoCapacity", err)
	}
}

// TestCoordinatorRejectsMonitors: process-local hooks cannot ship.
func TestCoordinatorRejectsMonitors(t *testing.T) {
	f := newFleet(t, 2)
	engine := tunedEngine(t, "queens", 16)
	engine.Monitor = func(int64, int, []int) core.Directive { return core.Directive{} }
	if _, err := f.coord.Run(context.Background(), JobSpec{Problem: "queens", Size: 16, Walkers: 1, Seed: 1, Engine: engine}); err == nil {
		t.Fatal("Monitor-carrying job accepted")
	}
}

func TestServiceBackendContract(t *testing.T) {
	// Compile-time: *Coordinator satisfies service.Backend (asserted
	// here rather than in service to keep the packages decoupled).
	var _ interface {
		Name() string
		Slots() int
		Close()
	} = (*Coordinator)(nil)
}

// TestDistributedFDProblem is the finite-domain acceptance test: a
// sharded timetable job — with explicit problem params shipped in the
// run request — reproduces the single-process virtual run bit for bit,
// and a dependent (exchange) run cooperates across workers on the FD
// encoding without tripping the board's configuration verification.
func TestDistributedFDProblem(t *testing.T) {
	f := newFleet(t, 2, 2, 1)
	params := map[string]int{"slots": 6, "rooms": 4, "teachers": 4}
	const size, k = 20, 5
	engine := func() core.Options {
		p, err := problems.NewWithParams("timetable", size, params)
		if err != nil {
			t.Fatal(err)
		}
		eo := core.TunedOptions(p)
		eo.MaxIterations = 2000
		eo.MaxRuns = 1
		return eo
	}()
	seed := uint64(0xFD2012)

	factory, err := problems.NewFactoryParams("timetable", size, params)
	if err != nil {
		t.Fatal(err)
	}
	local, err := multiwalk.RunVirtual(context.Background(), multiwalk.Factory(factory), multiwalk.Options{
		Walkers: k, Seed: seed, Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	distd, err := f.coord.RunVirtual(context.Background(), JobSpec{
		Problem: "timetable", Size: size, Params: params, Walkers: k, Seed: seed, Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if local.Winner != distd.Winner || local.Solved != distd.Solved ||
		local.TotalIterations != distd.TotalIterations {
		t.Fatalf("FD aggregate diverged:\nlocal: %+v\ndist:  %+v", local, distd)
	}
	if !reflect.DeepEqual(local.Solution, distd.Solution) {
		t.Fatalf("FD solution diverged")
	}
	sameWalkers(t, "timetable", local.Walkers, distd.Walkers)

	// Unknown params are a typed protocol rejection at the worker.
	_, err = f.coord.RunVirtual(context.Background(), JobSpec{
		Problem: "timetable", Size: size, Params: map[string]int{"professors": 1}, Walkers: 1, Seed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "professors") {
		t.Fatalf("bad params accepted by fleet: %v", err)
	}

	// So is a model its one pre-search reduction proves unsatisfiable:
	// the worker refuses the run (ErrBadRequest, 400) before any walker
	// exists, where it used to fail inside every walker and answer 503,
	// which the coordinator reads as a lost shard.
	_, err = f.coord.RunVirtual(context.Background(), JobSpec{
		Problem: "timetable", Size: 3, Params: map[string]int{"rooms": 1, "slots": 2}, Walkers: 1, Seed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), ErrBadRequest.Error()) || !strings.Contains(err.Error(), "unsatisfiable") {
		t.Fatalf("unsatisfiable model at the fleet: %v, want the worker's bad-request answer naming it", err)
	}

	// Dependent run: cross-worker cooperation on the FD encoding. The
	// board probe must verify FD configurations (not permutations) or
	// every publish would be rejected.
	exch, err := f.coord.Run(context.Background(), JobSpec{
		Problem: "timetable", Size: size, Params: params, Walkers: 4, Seed: seed,
		Engine:   engine,
		Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 16, AdoptFactor: 1.5, PerturbSwaps: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !exch.Solved {
		t.Fatalf("dependent FD fleet run unsolved: %+v", exch)
	}
	probe, err := problems.NewWithParams("timetable", size, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateFDConfig(probe.(core.FDProblem), exch.Solution); err != nil {
		t.Fatalf("fleet solution outside domains: %v", err)
	}
}
