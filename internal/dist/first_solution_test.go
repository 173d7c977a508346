package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// workerCancels reads a worker's cancels_total from /healthz: the
// cancel RPCs that stopped a run, live or not yet registered.
func workerCancels(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Cancels int64 `json:"cancels_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Cancels
}

// lopsidedJob scans seeds in deterministic virtual mode — every walker
// to completion — for a two-walker costas job in which one walker needs
// at least 20x the other's iterations (and 10 000 more, tens of
// milliseconds, in absolute terms), so that on a fleet the slow walker
// cannot possibly finish on its own before the fast one's cancel
// reaches it. Runtimes are close to exponential, so about one seed in
// ten qualifies.
func lopsidedJob(t *testing.T, coord *Coordinator) (job JobSpec, virt multiwalk.Result, winner, loser int) {
	t.Helper()
	job = JobSpec{Problem: "costas", Size: 14, Walkers: 2, Engine: tunedEngine(t, "costas", 14)}
	for seed := uint64(1); seed <= 100; seed++ {
		job.Seed = seed
		res, err := coord.RunVirtual(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		w0, w1 := res.Walkers[0].Result, res.Walkers[1].Result
		if !w0.Solved || !w1.Solved {
			continue
		}
		winner, loser = 0, 1
		if w1.Iterations < w0.Iterations {
			winner, loser = 1, 0
		}
		fast, slow := res.Walkers[winner].Result.Iterations, res.Walkers[loser].Result.Iterations
		if slow >= 20*fast && slow >= fast+10000 {
			return job, res, winner, loser
		}
	}
	t.Fatal("no seed in 1..100 gives a 20x gap between the two walkers")
	return
}

// TestFirstSolutionCancelsOtherWorkers: in wall-clock mode the first
// solved shard stops the job's other shard with a cancel RPC, through
// plain and speculative dispatch alike. The job is chosen so that it
// cannot pass by both walkers finishing on their own: the loser must
// come back interrupted short of the iterations it needs, the winner
// with exactly the iterations it needs alone, and the loser's worker
// must have counted exactly one cancel that hit a live run.
func TestFirstSolutionCancelsOtherWorkers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		speculate bool
	}{
		{name: "dispatch"},
		{name: "speculative", speculate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 1, 1)
			coord := f.coord
			if tc.speculate {
				coord = speculatingCoordinator(t, f.servers[0].URL, f.servers[1].URL)
			}
			job, virt, winner, loser := lopsidedJob(t, coord)
			need := func(w int) int64 { return virt.Walkers[w].Result.Iterations }

			// One slot a worker: walker i runs on worker i.
			before := workerCancels(t, f.servers[loser].URL)
			res, err := coord.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved || res.Truncated || res.Winner != winner {
				t.Fatalf("want solved by walker %d, untruncated: %+v", winner, res)
			}
			if len(res.Walkers) != 2 || res.Completed != 2 {
				t.Fatalf("want both walkers' stats, got %d (completed %d)", len(res.Walkers), res.Completed)
			}
			if got := res.Walkers[winner].Result.Iterations; got != need(winner) || res.WinnerIterations != got {
				t.Fatalf("winner ran %d iterations (headline %d), needs exactly %d alone", got, res.WinnerIterations, need(winner))
			}
			lr := res.Walkers[loser].Result
			if !lr.Interrupted || lr.Solved {
				t.Fatalf("loser was not interrupted (seed %d): %+v", job.Seed, lr)
			}
			if lr.Iterations >= need(loser) {
				t.Fatalf("loser ran %d iterations, its whole need of %d: nothing stopped it", lr.Iterations, need(loser))
			}
			if got := workerCancels(t, f.servers[loser].URL) - before; got != 1 {
				t.Fatalf("loser worker counted %d cancels that stopped a run, want 1", got)
			}
			// The ack is counted when the cancel RPC's reply is in, which
			// the job does not wait for: the loser's answer can pass it. A
			// cancel that overtook its run (the loser then ran zero
			// iterations) was answered "not live" and is never acked.
			mustAck := lr.Iterations > 0
			m := coord.BackendMetrics()
			for deadline := time.Now().Add(5 * time.Second); mustAck && m["first_solution_cancels_acked"] == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				m = coord.BackendMetrics()
			}
			if sent, acked := m["first_solution_cancels_sent"], m["first_solution_cancels_acked"]; sent != 1 || acked > 1 || mustAck && acked != 1 {
				t.Fatalf("first-solution counters: sent %d acked %d, want 1 and 1 (loser ran %d iterations)", sent, acked, lr.Iterations)
			}
		})
	}
}

// postRun posts one single-walker run request to a worker.
func postRun(t *testing.T, base string, req RunRequest) RunResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run %q: status %d", req.ID, resp.StatusCode)
	}
	var out RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// postCancel posts a cancel and returns the worker's "cancelled" answer.
func postCancel(t *testing.T, base, id string) bool {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack.Cancelled
}

// TestCancelThatOutrunsItsRun: the winner's cancel can reach the loser's
// worker before the loser's own run request has registered (it did in
// 4 of 20 runs of TestFirstSolutionCancelsOtherWorkers under -race). It
// used to be answered "not live" and forgotten, and the run then
// searched to its own end. Played in the bad order on purpose: cancel,
// then run.
func TestCancelThatOutrunsItsRun(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 1})
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { srv.Close(); wk.Close() })
	// Alone, the run would take its whole budget: seconds.
	engine := tunedEngine(t, "costas", 18)
	engine.MaxRuns = 1
	run := func(id string) WalkerStatWire {
		t.Helper()
		out := postRun(t, srv.URL, RunRequest{
			ID: id, Mode: ModeRun, Problem: "costas", Size: 18, Seed: 1,
			TotalWalkers: 1, Start: 0, Count: 1, Engine: engine,
		})
		if len(out.Stats) != 1 {
			t.Fatalf("run %q: %d walker stats, want 1", id, len(out.Stats))
		}
		if busy := wk.Busy(); busy != 0 {
			t.Fatalf("run %q answered with %d slots still reserved", id, busy)
		}
		return out.Stats[0]
	}
	stopped := func(st WalkerStatWire) bool { return st.Interrupted && !st.Solved && st.Iterations == 0 }

	before := workerCancels(t, srv.URL)
	if postCancel(t, srv.URL, "early") {
		t.Fatal("a cancel for an unregistered run claimed to have found it live")
	}
	if got := workerCancels(t, srv.URL) - before; got != 0 {
		t.Fatalf("an unmatched cancel moved cancels_total by %d before any run came", got)
	}
	if st := run("early"); !stopped(st) {
		t.Fatalf("the run whose cancel came first was not stopped at registration: %+v", st)
	}
	if got := workerCancels(t, srv.URL) - before; got != 1 {
		t.Fatalf("cancels_total moved by %d, want 1", got)
	}

	// The ring is fixed-size: earlyCancels later unmatched cancels push
	// the oldest out, and its run is then an ordinary run. The budget is
	// cut so that it ends on its own.
	engine.MaxIterations = 200
	postCancel(t, srv.URL, "pushed-out")
	for k := 0; k < earlyCancels; k++ {
		postCancel(t, srv.URL, fmt.Sprintf("other-%d", k))
	}
	if st := run("pushed-out"); st.Iterations == 0 {
		t.Fatalf("a cancel older than the last %d unmatched ones still stopped its run: %+v", earlyCancels, st)
	}

	if got := workerCancels(t, srv.URL) - before; got != 1 {
		t.Fatalf("cancels_total moved by %d over the whole test, want 1", got)
	}
}

// TestEarlyCancelSparesTheNextCoordinator: a worker outlives its
// coordinators, and every coordinator numbers its jobs from 1. A cancel
// that one coordinator left in the worker's ring (its run had answered
// already) must not stop the same-numbered run of the next one: the
// epoch in front of the run id keeps the two apart.
func TestEarlyCancelSparesTheNextCoordinator(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 1})
	var mu sync.Mutex
	var runIDs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var req struct{ ID string }
			if err := json.Unmarshal(body, &req); err != nil {
				t.Error(err)
			}
			mu.Lock()
			runIDs = append(runIDs, req.ID)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		wk.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); wk.Close() })
	job := JobSpec{Problem: "queens", Size: 16, Walkers: 1, Seed: 3, Engine: tunedEngine(t, "queens", 16)}
	firstJob := func() (runID string, res multiwalk.Result) {
		t.Helper()
		coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		if res, err = coord.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return runIDs[len(runIDs)-1], res
	}

	idA, resA := firstJob()
	if postCancel(t, srv.URL, idA) {
		t.Fatalf("run %q had answered, yet its cancel found it live", idA)
	}
	before := workerCancels(t, srv.URL)
	idB, resB := firstJob()
	const first = "job000001-s0"
	if !strings.HasSuffix(idA, first) || !strings.HasSuffix(idB, first) {
		t.Fatalf("run ids %q and %q: want the first job of each coordinator", idA, idB)
	}
	if idA == idB {
		t.Fatalf("two coordinators issued the same run id %q", idA)
	}
	if !resB.Solved || resB.TotalIterations == 0 || resB.TotalIterations != resA.TotalIterations {
		t.Fatalf("the second coordinator's job was disturbed: %d iterations, solved %v; the first ran %d",
			resB.TotalIterations, resB.Solved, resA.TotalIterations)
	}
	if got := workerCancels(t, srv.URL) - before; got != 0 {
		t.Fatalf("cancels_total moved by %d: the predecessor's cancel stopped a run", got)
	}
}

// TestShardSolvedCrossesTheWire: the shard response carries no
// aggregate, so Solved has to be rebuilt from the stats on the
// coordinator's side — for results as both multiwalk.Run and
// multiwalk.RunVirtual produce them, and through the JSON the worker
// actually writes. (It was not, from PR 3 to PR 17, and first-solution
// termination never fired.)
func TestShardSolvedCrossesTheWire(t *testing.T) {
	generous := tunedEngine(t, "queens", 16)
	starved := generous
	starved.MaxIterations, starved.MaxRuns = 1, 1
	// With 20 iterations and seed 1, walker 0 solves in 16 and walker 1
	// does not (RunVirtual picked the seed): a mixed shard is solved.
	short := generous
	short.MaxIterations, short.MaxRuns = 20, 1
	cases := []struct {
		name string
		opts multiwalk.Options
		want bool
	}{
		{"solved", multiwalk.Options{Walkers: 2, Seed: 7, Engine: generous}, true},
		{"unsolved", multiwalk.Options{Walkers: 2, Seed: 7, Engine: starved}, false},
		{"mixed", multiwalk.Options{Walkers: 2, Seed: 1, Engine: short}, true},
	}
	modes := []struct {
		name string
		run  func(context.Context, multiwalk.Factory, multiwalk.Options) (multiwalk.Result, error)
	}{
		{ModeRun, multiwalk.Run},
		{ModeVirtual, multiwalk.RunVirtual},
	}
	for _, tc := range cases {
		for _, mode := range modes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				factory, err := problems.NewFactory("queens", 16)
				if err != nil {
					t.Fatal(err)
				}
				r, err := mode.run(context.Background(), multiwalk.Factory(factory), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Solved != tc.want {
					t.Fatalf("precondition: shard Solved = %v, want %v", r.Solved, tc.want)
				}
				raw, err := json.Marshal(wireResult(r))
				if err != nil {
					t.Fatal(err)
				}
				var resp RunResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					t.Fatal(err)
				}
				got := resultFromWire(resp)
				if got.Solved != r.Solved {
					t.Fatalf("Solved = %v after the wire, %v before", got.Solved, r.Solved)
				}
				for i := range r.Walkers {
					if got.Walkers[i].Result.Solved != r.Walkers[i].Result.Solved {
						t.Fatalf("walker %d: Solved flipped on the wire", i)
					}
				}
			})
		}
	}
}

// vanishingLoser pretends to be a one-slot worker whose shard never
// finishes: it holds the run until the run's cancel RPC arrives, acks
// the cancel, and then drops the run's connection without a response —
// a loser lost after the winner answered.
func vanishingLoser(t *testing.T) *httptest.Server {
	t.Helper()
	cancelled := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "slots": 1})
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-cancelled:
		case <-r.Context().Done():
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	})
	mux.HandleFunc("POST /v1/runs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(cancelled) })
		_ = json.NewEncoder(w).Encode(map[string]any{"cancelled": true})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestSolvedJobDoesNotRecoverLostLoser pins the recovery gate: a solved
// wall-clock job whose loser shard was lost is finished. With a free
// healthy worker standing by — capacity recovery would happily use —
// no recovery round may run, the result is Solved and not Truncated,
// and the lost walker leaves its mark in Completed < Walkers.
func TestSolvedJobDoesNotRecoverLostLoser(t *testing.T) {
	urls := make([]string, 3)
	for _, i := range []int{0, 2} {
		wk := NewWorker(WorkerConfig{Slots: 1})
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(func() { srv.Close(); wk.Close() })
		urls[i] = srv.URL
	}
	urls[1] = vanishingLoser(t).URL
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// Walker 0 solves on the real worker; walker 1 is on the vanishing
	// one; the third worker stays free.
	res, err := coord.Run(context.Background(), JobSpec{
		Problem: "queens", Size: 30, Walkers: 2, Seed: 1, Engine: tunedEngine(t, "queens", 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Winner != 0 || res.Truncated {
		t.Fatalf("want solved by walker 0, untruncated: %+v", res)
	}
	if res.Completed != 1 || len(res.Walkers) != 2 {
		t.Fatalf("Completed = %d of %d stats, want 1 of 2", res.Completed, len(res.Walkers))
	}
	if lr := res.Walkers[1].Result; !lr.Interrupted || lr.Iterations != 0 || lr.Cost != core.CostUnknown {
		t.Fatalf("lost loser carries fabricated work: %+v", lr)
	}
	m := coord.BackendMetrics()
	if m["shards_lost"] != 1 {
		t.Fatalf("shards_lost = %d, want 1 (the precondition: the loser was lost)", m["shards_lost"])
	}
	if m["recovery_rounds"] != 0 || m["shards_recovered"] != 0 || m["jobs_truncated_by_loss"] != 0 {
		t.Fatalf("solved job went into recovery or counted as truncated: %v", m)
	}
}

// TestRecoveryRoundWinnerCancelsItsRound: a shard of a recovery round
// that solves stops the other copies of its round — one cancel here —
// and not the copies of the rounds before it, which have all resolved.
func TestRecoveryRoundWinnerCancelsItsRound(t *testing.T) {
	started := make(chan struct{}, 1)
	urls := []string{lossyWorker(t, 4, started).URL}
	for i := 0; i < 2; i++ {
		wk := NewWorker(WorkerConfig{Slots: 2})
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(func() { srv.Close(); wk.Close() })
		urls = append(urls, srv.URL)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// With 20 iterations and seed 38, walkers 0-3 solve and walkers 4-5
	// do not (RunVirtual picked the seed). Walkers 0-3 are lost with the
	// first worker and re-run, two a worker, on the other two; round 0,
	// walkers 4-5 alone, ends unsolved.
	engine := tunedEngine(t, "queens", 30)
	engine.MaxIterations, engine.MaxRuns = 20, 1
	res, err := coord.Run(context.Background(), JobSpec{Problem: "queens", Size: 30, Walkers: 6, Seed: 38, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Truncated || res.Winner > 3 {
		t.Fatalf("want solved by a recovered walker, untruncated: %+v", res)
	}
	m := coord.BackendMetrics()
	if m["recovery_rounds"] != 1 || m["shards_recovered"] != 2 {
		t.Fatalf("precondition: one recovery round of two shards: %v", m)
	}
	if sent := m["first_solution_cancels_sent"]; sent != 1 {
		t.Fatalf("first_solution_cancels_sent = %d, want 1 (the other shard of the winner's round)", sent)
	}
}

// TestJobStopGraceTimer pins the grace timer's life: not armed when a
// solved shard has nobody to cancel (a single-shard plan), armed once
// by the job's first fan-out, stopped by release, and never armed after
// release (a caller cancellation racing run's return).
func TestJobStopGraceTimer(t *testing.T) {
	f := newFleet(t, 1, 1)
	runs := []*assignment{
		{worker: f.coord.reg.workers[0], runID: "no-such-run-0"},
		{worker: f.coord.reg.workers[1], runID: "no-such-run-1"},
	}
	sent := func() int64 { return f.coord.BackendMetrics()["first_solution_cancels_sent"] }

	s := &jobStop{c: f.coord, hardCancel: func() {}}
	s.add(runs[0])
	s.firstSolution(runs[0])
	if s.grace != nil || sent() != 0 {
		t.Fatalf("single-shard job: timer armed = %v, %d cancels sent; want neither", s.grace != nil, sent())
	}

	s = &jobStop{c: f.coord, hardCancel: func() {}}
	s.add(runs[0])
	s.add(runs[1])
	s.firstSolution(runs[0])
	armed := s.grace
	if armed == nil || sent() != 1 {
		t.Fatalf("two-shard job: timer armed = %v, %d cancels sent; want one of each", armed != nil, sent())
	}
	s.firstSolution(runs[1]) // the other shard solved too: no second fan-out
	s.armGrace()             // nor does a caller cancellation restart the clock
	if s.grace != armed || sent() != 1 {
		t.Fatalf("second fan-out: timer replaced = %v, %d cancels sent", s.grace != armed, sent())
	}
	s.release()
	if armed.Stop() {
		t.Fatal("release left the grace timer running")
	}

	s = &jobStop{c: f.coord, hardCancel: func() {}}
	s.release()
	s.armGrace()
	if s.grace != nil {
		t.Fatal("grace timer armed after release")
	}
}

// TestSolvedFleetJobsLeaveNothingBehind: every solved two-shard job
// arms the grace timer behind its cancel fan-out, and run must stop it
// on return — left to expire it pins the job's request context for 30 s,
// about six heap objects a job. A few hundred solved jobs must leave
// the live heap and the goroutine count where a warmed-up fleet had them,
// through plain and speculative dispatch alike: a speculating job also
// starts a straggler detector and tracks its shards in the progress
// table, and neither may outlive it.
func TestSolvedFleetJobsLeaveNothingBehind(t *testing.T) {
	for _, tc := range []struct {
		name      string
		speculate bool
	}{
		{name: "dispatch"},
		{name: "speculative", speculate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 1, 1)
			coord := f.coord
			if tc.speculate {
				coord = speculatingCoordinator(t, f.servers[0].URL, f.servers[1].URL)
			}
			job := JobSpec{Problem: "queens", Size: 30, Walkers: 2, Engine: tunedEngine(t, "queens", 30)}
			run := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					job.Seed++
					res, err := coord.Run(context.Background(), job)
					if err != nil || !res.Solved {
						t.Fatalf("job %d: solved=%v err=%v", i, res.Solved, err)
					}
				}
			}
			// live waits for the jobs' cancel RPC goroutines (which outlive
			// the job by a round trip) to drain back to the given level,
			// then counts what the collector cannot free.
			live := func(goroutines int) (int, uint64) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return runtime.NumGoroutine(), ms.HeapObjects
			}

			// What legitimately comes and goes is pooled connections: three
			// goroutines and a few dozen objects each, both ends being in
			// this process, at most 8 idle ones a worker. A leak is per job.
			const jobs, slack = 500, 3 * 8 * 2
			run(50) // warm-up: connection pools, lazily started goroutines
			g0, o0 := live(runtime.NumGoroutine())
			sent0 := coord.BackendMetrics()["first_solution_cancels_sent"]
			run(jobs)
			g1, o1 := live(g0 + slack)

			// Not vacuous: (nearly) every job must have fanned out a cancel
			// and armed a timer. Both shards of a tiny job can land
			// together, but the first one to be handled still cancels the
			// other.
			m := coord.BackendMetrics()
			if sent := m["first_solution_cancels_sent"] - sent0; sent != jobs {
				t.Fatalf("%d of %d jobs sent a first-solution cancel", sent, jobs)
			}
			if m["shards_tracked"] != 0 {
				t.Fatalf("%d shards still tracked after every job returned", m["shards_tracked"])
			}
			t.Logf("%d solved jobs: goroutines %d -> %d, live heap objects %+d", jobs, g0, g1, int64(o1)-int64(o0))
			if g1 > g0+slack {
				t.Fatalf("goroutines grew from %d to %d across %d solved jobs", g0, g1, jobs)
			}
			if grown := int64(o1) - int64(o0); grown > 2*jobs {
				t.Fatalf("live heap grew by %d objects across %d solved jobs (a leaked grace timer pins ~6 a job)", grown, jobs)
			}
		})
	}
}
