package dist

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multiwalk"
)

// speculating is a coordinator with speculation tuned for test cadence.
var speculating = CoordinatorConfig{
	HeartbeatInterval: -1,
	BoardSync:         2 * time.Millisecond,
	Speculate:         true,
	SpeculateAfter:    50 * time.Millisecond,
	SpeculateInterval: 25 * time.Millisecond,
}

// speculatingCoordinator builds a speculating coordinator over the
// given worker URLs.
func speculatingCoordinator(t *testing.T, urls ...string) *Coordinator {
	t.Helper()
	cfg := speculating
	cfg.Workers = urls
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestDeliverSpecFirstWins drives the slot state machine through both
// arrival orders and the failure-holding paths directly.
func TestDeliverSpecFirstWins(t *testing.T) {
	coord := speculatingCoordinator(t)
	good := shardOutcome{res: multiwalk.Result{Completed: 2}}

	newSlot := func() (*specSlot, *assignment, *assignment) {
		pa := &assignment{runID: "p"}
		ba := &assignment{runID: "b"}
		return &specSlot{primary: pa, backup: ba, inflight: 2}, pa, ba
	}

	// Primary lands first: it wins, the backup is the loser to cancel,
	// and the backup's later delivery is dropped.
	s, pa, ba := newSlot()
	resolved, final, loser := coord.deliverSpec(s, pa, good)
	if !resolved || loser != ba || final.res.Completed != 2 {
		t.Fatalf("primary-first: resolved=%v loser=%p final=%+v", resolved, loser, final)
	}
	if resolved, _, _ := coord.deliverSpec(s, ba, good); resolved {
		t.Fatal("late backup delivery resolved an already-resolved slot")
	}
	if coord.mSpecLost.Load() != 1 || coord.mSpecWon.Load() != 0 {
		t.Fatalf("primary-first counters: won=%d lost=%d", coord.mSpecWon.Load(), coord.mSpecLost.Load())
	}

	// Backup lands first: the speculation won, the primary is the
	// loser, and its later delivery is dropped.
	s, pa, ba = newSlot()
	resolved, _, loser = coord.deliverSpec(s, ba, good)
	if !resolved || loser != pa {
		t.Fatalf("backup-first: resolved=%v loser=%p", resolved, loser)
	}
	if resolved, _, _ := coord.deliverSpec(s, pa, good); resolved {
		t.Fatal("late primary delivery resolved an already-resolved slot")
	}
	if coord.mSpecWon.Load() != 1 {
		t.Fatalf("backup-first: won=%d", coord.mSpecWon.Load())
	}

	// A failed primary is held while the backup is still in flight; the
	// backup's success then resolves the slot.
	s, pa, ba = newSlot()
	if resolved, _, _ := coord.deliverSpec(s, pa, shardOutcome{lost: true}); resolved {
		t.Fatal("lost primary resolved the slot with a backup still in flight")
	}
	resolved, final, loser = coord.deliverSpec(s, ba, good)
	if !resolved || loser != nil || final.lost || final.res.Completed != 2 {
		t.Fatalf("backup-after-lost-primary: resolved=%v loser=%p final=%+v", resolved, loser, final)
	}

	// Both copies fail: an application rejection outranks a transport
	// loss regardless of arrival order.
	s, pa, ba = newSlot()
	if resolved, _, _ := coord.deliverSpec(s, ba, shardOutcome{err: errors.New("rejected")}); resolved {
		t.Fatal("rejected backup resolved the slot with the primary still in flight")
	}
	resolved, final, _ = coord.deliverSpec(s, pa, shardOutcome{lost: true})
	if !resolved || final.err == nil {
		t.Fatalf("both-failed: resolved=%v final=%+v, want the rejection surfaced", resolved, final)
	}
}

// TestSpeculativeRunMatchesUnperturbed is the end-to-end duplicate
// suppression matrix: a job whose first shard is dispatched to a
// worker that holds it until it is cancelled, with speculation on,
// must come back exactly as a never-straggled run — every walker
// reported once with its global identity, and (independent mode)
// bit-for-bit the clean fleet's stats even when the straggler's copy
// lands after the backup.
func TestSpeculativeRunMatchesUnperturbed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		exchange bool
	}{
		{name: "independent"},
		{name: "exchange", exchange: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The budget must be far below costas 18's solve horizon: a
			// solving walker triggers first-solution cancellation, and the
			// interrupted walkers' stats then depend on cancel timing —
			// only a runs-to-budget job is bit-for-bit reproducible.
			engine := tunedEngine(t, "costas", 18)
			engine.MaxIterations = 4000
			engine.MaxRuns = 1
			job := JobSpec{Problem: "costas", Size: 18, Walkers: 4, Seed: 99, Engine: engine}
			if tc.exchange {
				job.Exchange = multiwalk.ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 1.5}
			}

			ref, err := newMemFleet(t, CoordinatorConfig{}, nil, 2, 2, 2).Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Solved {
				t.Fatalf("reference run solved — budget %d too generous for the bit-for-bit comparison", engine.MaxIterations)
			}

			coord := newMemFleet(t, speculating, holdsRunsUntilCancelled("w0", nil), 2, 2, 2)
			ticksNow(coord)
			res, err := coord.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatalf("speculated run truncated: %+v", res)
			}
			if len(res.Walkers) != 4 {
				t.Fatalf("want 4 walkers exactly once, got %d", len(res.Walkers))
			}
			for w, ws := range res.Walkers {
				if ws.Walker != w {
					t.Fatalf("walker %d carries global index %d", w, ws.Walker)
				}
			}
			m := coord.BackendMetrics()
			if m["speculations_launched"] < 1 {
				t.Fatalf("no speculation launched: %v", m)
			}
			if !tc.exchange {
				// Independent runs are bit-for-bit: whichever copy of
				// the straggler's shard won, its stats are the clean
				// fleet's stats, and the loser's are nowhere.
				sameWalkers(t, "speculated", ref.Walkers, res.Walkers)
				if res.Solved != ref.Solved || res.Winner != ref.Winner || res.Completed != ref.Completed {
					t.Fatalf("headline mismatch:\nclean: %+v\nspec:  %+v", ref, res)
				}
				return
			}
			// Dependent runs are timing-dependent; check the exchange
			// accounting invariants instead: adoption totals match the
			// per-walker sums and a yielded walker implies a solved job.
			var adoptions int64
			yielded := false
			for _, ws := range res.Walkers {
				adoptions += ws.Adoptions
				yielded = yielded || ws.Yielded
			}
			if res.Adoptions != adoptions {
				t.Fatalf("Adoptions %d != per-walker sum %d", res.Adoptions, adoptions)
			}
			if yielded && !res.Solved {
				t.Fatalf("yielded walker in an unsolved job: %+v", res)
			}
		})
	}
}

// TestSpeculationLoserReleasesSlotsPromptly: once the backup wins, the
// held primary's reservation must come back the moment the worker acks
// the cancel — not when its (still held) HTTP response finally drains.
func TestSpeculationLoserReleasesSlotsPromptly(t *testing.T) {
	// The straggler w0 holds its shard's run until the job gives up on
	// it, so its response is still held when its slots must be back.
	straggler := func(r *http.Request) error {
		if kind, host, _ := fleetCall(r); kind == "run" && host == "w0" {
			return hold(r, nil)
		}
		return nil
	}
	coord := newMemFleet(t, speculating, straggler, 2, 2, 2)
	ticksNow(coord)

	// With seed 38 walker 0 solves in 2 801 iterations and walkers 2-3
	// churn their whole 40 000 unsolved (RunVirtual picked the seed), so
	// the backup of the held shard (walkers 0-1) wins, and the job is
	// still in flight when the loser's slots must already be reusable.
	engine := tunedEngine(t, "costas", 16)
	engine.MaxIterations = 40000
	engine.MaxRuns = 1
	job := JobSpec{Problem: "costas", Size: 16, Walkers: 4, Seed: 38, Engine: engine}

	type runRes struct {
		res multiwalk.Result
		err error
	}
	done := make(chan runRes, 1)
	go func() {
		res, err := coord.Run(context.Background(), job)
		done <- runRes{res, err}
	}()

	// The held shard never starts, so the backup wins as soon as the
	// detector ticks; its cancel is acked instantly by the worker
	// and must release the straggler's two reserved slots while the job
	// (and the loser's held dispatch) is still running.
	deadline := time.After(15 * time.Second)
	released := false
	for !released {
		select {
		case <-deadline:
			t.Fatal("straggler slots not released while its response was still held")
		case <-time.After(5 * time.Millisecond):
		}
		m := coord.BackendMetrics()
		if m["speculations_cancelled"] < 1 {
			continue
		}
		for _, wi := range coord.Workers() {
			if wi.URL == "http://w0" && wi.Busy == 0 {
				released = true
			}
		}
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.res.Truncated || len(r.res.Walkers) != 4 {
		t.Fatalf("speculated run: %+v", r.res)
	}
	m := coord.BackendMetrics()
	if m["speculations_won"] < 1 || m["speculations_cancelled"] < 1 {
		t.Fatalf("counters: %v", m)
	}
	for _, wi := range coord.Workers() {
		if wi.Busy != 0 {
			t.Fatalf("slot leak after run: %+v", wi)
		}
	}
}

// TestSpeculationBackupOutlivesLostPrimary: a primary that is lost
// while its backup is in flight does not resolve its slot — the backup
// does, and the loss reaches neither recovery nor truncation. The
// primary's worker holds the run until the backup is dispatched and
// then drops the connection; the backup is held until
// the coordinator has taken the loss (the primary's reservation is
// gone, which runShard's return precedes), so the loss is delivered
// while the backup still has its whole search to run.
func TestSpeculationBackupOutlivesLostPrimary(t *testing.T) {
	engine := tunedEngine(t, "costas", 18)
	engine.MaxIterations = 4000
	engine.MaxRuns = 1
	job := JobSpec{Problem: "costas", Size: 18, Walkers: 4, Seed: 99, Engine: engine}
	ref, err := newMemFleet(t, CoordinatorConfig{}, nil, 2, 2, 2).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Solved {
		t.Fatalf("reference run solved — budget %d too generous for the bit-for-bit comparison", engine.MaxIterations)
	}

	// The primary's worker w0 holds the run until the backup is
	// dispatched and then drops it; the backup is held until the
	// coordinator has taken the loss: the dropping worker holds no
	// reservation any more.
	var c *Coordinator
	backupOut := make(chan struct{})
	var backupOnce sync.Once
	primaryLost := func() bool { return c.Workers()[0].Busy == 0 }
	hook := func(r *http.Request) error {
		kind, host, id := fleetCall(r)
		switch {
		case kind != "run":
		case host == "w0":
			if err := hold(r, backupOut); err != nil {
				return err
			}
			return errDropped
		case strings.Contains(id, "-b1-"):
			backupOnce.Do(func() { close(backupOut) })
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for !primaryLost() {
				select {
				case <-tick.C:
				case <-r.Context().Done():
					return r.Context().Err()
				}
			}
		}
		return nil
	}
	c = newMemFleet(t, speculating, hook, 2, 2, 2)
	ticksNow(c)

	res, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Solved != ref.Solved || res.Winner != ref.Winner || res.Completed != ref.Completed {
		t.Fatalf("headline mismatch:\nclean:  %+v\nbackup: %+v", ref, res)
	}
	sameWalkers(t, "backup after lost primary", ref.Walkers, res.Walkers)
	m := c.BackendMetrics()
	if m["shards_lost"] != 0 || m["recovery_rounds"] != 0 || m["jobs_truncated_by_loss"] != 0 || m["speculations_won"] != 1 {
		t.Fatalf("want the slot resolved by its backup, nothing lost or recovered: %v", m)
	}
}

// TestPlanRecoveryNoCapacityTypedError pins the zero-capacity recovery
// path: with no healthy free worker, planRecovery returns an empty plan
// with the whole input uncovered, and run() stops retrying without
// burning recovery rounds.
func TestPlanRecoveryNoCapacityTypedError(t *testing.T) {
	coord := newMemFleet(t, CoordinatorConfig{RecoverAttempts: 3, HeartbeatInterval: -1}, losesRuns("w0"), 2)

	engine := tunedEngine(t, "costas", 16)
	engine.MaxIterations = 1500
	engine.MaxRuns = 1
	res, err := coord.Run(context.Background(), JobSpec{
		Problem: "costas", Size: 16, Walkers: 2, Seed: 99, Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatalf("lost job with no recovery capacity not truncated: %+v", res)
	}
	// The only worker is suspect after the loss, so every recovery
	// round would have been futile: none may be burned.
	if rounds := coord.BackendMetrics()["recovery_rounds"]; rounds != 0 {
		t.Fatalf("burned %d recovery rounds with zero healthy capacity", rounds)
	}

	plan, uncovered := coord.planRecovery(ModeRun, []lostRange{{start: 0, count: 2}})
	if len(plan) != 0 {
		t.Fatalf("zero-capacity planRecovery produced a plan: %+v", plan)
	}
	if len(uncovered) != 1 || uncovered[0] != (lostRange{start: 0, count: 2}) {
		t.Fatalf("uncovered = %+v, want the full input range", uncovered)
	}
}

// frozenWorker fronts a real worker with a proxy that holds both the
// shard dispatch (POST /v1/run) and the progress read (GET
// /v1/runs/{id}) until the caller gives up: a worker that stopped
// answering with its process and sockets still alive, as under
// SIGSTOP. Health probes and cancels pass straight through.
func frozenWorker(t *testing.T, wk *Worker) *httptest.Server {
	t.Helper()
	inner := httptest.NewServer(wk.Handler())
	t.Cleanup(inner.Close)
	target, err := url.Parse(inner.URL)
	if err != nil {
		t.Fatal(err)
	}
	px := httputil.NewSingleHostReverseProxy(target)
	px.ErrorHandler = func(w http.ResponseWriter, _ *http.Request, _ error) {
		w.WriteHeader(http.StatusBadGateway)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		run := r.Method == http.MethodPost && r.URL.Path == "/v1/run"
		read := r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/runs/")
		if run || read {
			// Drained first: the net/http server only watches for a
			// client disconnect once the request body is consumed, and
			// the held request must abort the moment the coordinator
			// severs it.
			if _, err := io.Copy(io.Discard, r.Body); err != nil {
				return
			}
			<-r.Context().Done()
			return
		}
		px.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// progressReads records the progress reads (GET /v1/runs/{id}) the
// coordinator sends to one host: how much time each was given, and
// whether it came back.
type progressReads struct {
	http.RoundTripper
	host string

	mu       sync.Mutex
	budgets  []time.Duration // deadline minus send time
	answered int
}

func (p *progressReads) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodGet || r.URL.Host != p.host || !strings.HasPrefix(r.URL.Path, "/v1/runs/") {
		return p.RoundTripper.RoundTrip(r)
	}
	dl, ok := r.Context().Deadline()
	budget := time.Duration(1<<63 - 1)
	if ok {
		budget = time.Until(dl)
	}
	resp, err := p.RoundTripper.RoundTrip(r)
	p.mu.Lock()
	p.budgets = append(p.budgets, budget)
	if err == nil {
		p.answered++
	}
	p.mu.Unlock()
	return resp, err
}

// TestSpeculationBacksUpFrozenWorker is the straggler-smoke's SIGSTOP in
// one process: the worker holding a shard answers neither its run nor
// any read of its progress. The detector must still back the shard up
// (a copy that never answers reads as no progress), the backup must
// win, and no tick may wait on the frozen worker longer than one
// SpeculateInterval: every read sent there carries that deadline and
// ends by it.
func TestSpeculationBacksUpFrozenWorker(t *testing.T) {
	frozen := NewWorker(WorkerConfig{Slots: 2})
	t.Cleanup(func() { frozen.Close() })
	srv := frozenWorker(t, frozen)
	urls := []string{srv.URL}
	for i := 0; i < 2; i++ {
		wk := NewWorker(WorkerConfig{Slots: 2})
		s := httptest.NewServer(wk.Handler())
		t.Cleanup(func() { s.Close(); wk.Close() })
		urls = append(urls, s.URL)
	}
	transport := &http.Transport{}
	t.Cleanup(transport.CloseIdleConnections)
	frozenURL, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	reads := &progressReads{RoundTripper: transport, host: frozenURL.Host}
	const interval = 25 * time.Millisecond
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           urls,
		Client:            &http.Client{Transport: reads},
		HeartbeatInterval: -1,
		Speculate:         true,
		SpeculateAfter:    50 * time.Millisecond,
		SpeculateInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// The frozen worker joined first, so it holds walkers 0-1; with seed
	// 38 walker 0 solves in 2 801 iterations and walkers 2-3 run their
	// whole budget unsolved, so only a backup of the frozen shard can
	// end the job early.
	engine := tunedEngine(t, "costas", 16)
	engine.MaxIterations = 40000
	engine.MaxRuns = 1
	res, err := coord.Run(context.Background(), JobSpec{Problem: "costas", Size: 16, Walkers: 4, Seed: 38, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || !res.Solved || len(res.Walkers) != 4 {
		t.Fatalf("job around a frozen worker: %+v", res)
	}
	m := coord.BackendMetrics()
	if m["speculations_launched"] != 1 || m["speculations_won"] != 1 {
		t.Fatalf("want one backup, and it won: %v", m)
	}

	reads.mu.Lock()
	defer reads.mu.Unlock()
	if len(reads.budgets) == 0 {
		t.Fatal("the detector never read the frozen copy's progress")
	}
	if reads.answered != 0 {
		t.Fatalf("%d of %d reads of the frozen worker came back", reads.answered, len(reads.budgets))
	}
	for i, b := range reads.budgets {
		if b > interval {
			t.Fatalf("read %d of the frozen worker was given %v, more than one SpeculateInterval (%v)", i, b, interval)
		}
	}
}

// TestSpeculationOpensNoListener: the detector reads progress over the
// fleet client, as run and cancel calls go, so a job speculates on a
// memNet, where the coordinator has no socket to be reached on: it
// reads its copies' progress and launches a backup.
func TestSpeculationOpensNoListener(t *testing.T) {
	var reads atomic.Int64
	held := holdsRunsUntilCancelled("w0", nil)
	coord := newMemFleet(t, speculating, func(r *http.Request) error {
		if kind, _, _ := fleetCall(r); kind == "progress" {
			reads.Add(1)
		}
		return held(r)
	}, 2, 2, 2)
	ticksNow(coord)

	engine := tunedEngine(t, "costas", 16)
	engine.MaxIterations = 40000
	engine.MaxRuns = 1
	if _, err := coord.Run(context.Background(), JobSpec{Problem: "costas", Size: 16, Walkers: 4, Seed: 38, Engine: engine}); err != nil {
		t.Fatal(err)
	}
	if n := coord.BackendMetrics()["speculations_launched"]; n < 1 || reads.Load() < 1 {
		t.Fatalf("the job made %d progress reads and launched %d backups, want at least one of each", reads.Load(), n)
	}
}

// TestSpeculationStopsAtFirstSolution: once a job has solved, the
// detector backs nothing up. The loser's slot stays unresolved until its
// cancelled reply lands, and a backup launched by a tick in that gap
// would search for nobody. Here the loser's run is held until its
// cancel is through and then lost, the cancel is held for eight
// progress reads, and every read fails, so that nothing shows progress,
// and nothing can lag, before the winner's shard is in.
func TestSpeculationStopsAtFirstSolution(t *testing.T) {
	reads := make(chan struct{}) // a progress read, to a cancel held for it
	cancelled := make(chan struct{})
	var once sync.Once
	hook := func(r *http.Request) error {
		switch kind, host, _ := fleetCall(r); {
		case kind == "progress":
			select {
			case reads <- struct{}{}:
			default:
			}
			return errDropped
		case host != "w1":
		case kind == "run":
			if err := hold(r, cancelled); err != nil {
				return err
			}
			return errDropped
		case kind == "cancel":
			for range 8 {
				if err := hold(r, reads); err != nil {
					return err
				}
			}
			once.Do(func() { close(cancelled) })
		}
		return nil
	}
	coord := newMemFleet(t, speculating, hook, 1, 1, 1)
	ticksNow(coord)

	// Walker 0 solves on w0, walker 1 is held on w1, and w2 is free for
	// a backup.
	res, err := coord.Run(context.Background(), JobSpec{
		Problem: "queens", Size: 30, Walkers: 2, Seed: 1, Engine: tunedEngine(t, "queens", 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := coord.BackendMetrics()
	if n := m["speculations_launched"]; n != 0 {
		t.Fatalf("%d backups launched for a job that had solved: %v", n, m)
	}
	if m["first_solution_cancels_sent"] != 1 {
		t.Fatalf("precondition: one first-solution cancel: %v", m)
	}
	if !res.Solved || res.Winner != 0 || res.Truncated {
		t.Fatalf("want solved by walker 0, untruncated: %+v", res)
	}
}

// TestCancelledJobLaunchesNoBackup: a job its caller cancelled backs
// nothing up. w0 answers neither its run, nor a progress read, nor a
// cancel, so after the cancellation its slot stays unresolved and
// lagging behind w1's, which ran out its budget; the detector's ticks
// then launch nothing on the free w2, firing the grace timer ends the
// job, and every reserved slot comes back.
func TestCancelledJobLaunchesNoBackup(t *testing.T) {
	frozen := make(chan struct{})
	defer close(frozen)
	var mu sync.Mutex
	var runs []string
	hook := func(r *http.Request) error {
		kind, host, id := fleetCall(r)
		if kind == "run" {
			mu.Lock()
			runs = append(runs, id)
			mu.Unlock()
		}
		if host == "w0" && kind != "" {
			return hold(r, frozen)
		}
		return nil
	}
	coord := newMemFleet(t, speculating, hook, 1, 1, 1)
	armed := fakeClock(coord)

	// Far below costas 18's solve horizon: w1's walker runs out its
	// budget unsolved, and w0's lags it by the whole budget.
	engine := tunedEngine(t, "costas", 18)
	engine.MaxIterations, engine.MaxRuns = 4000, 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runRes struct {
		res multiwalk.Result
		err error
	}
	done := make(chan runRes, 1)
	go func() {
		res, err := coord.Run(ctx, JobSpec{Problem: "costas", Size: 18, Walkers: 2, Seed: 1, Engine: engine})
		done <- runRes{res, err}
	}()
	// The job must still be running whenever the test arms or fires
	// one of its timers.
	next := func() armedTimer {
		t.Helper()
		select {
		case a := <-armed:
			return a
		case r := <-done:
			t.Fatalf("the job ended early: %+v, err %v", r.res, r.err)
		}
		return armedTimer{}
	}
	fire := func(a armedTimer) {
		t.Helper()
		select {
		case a.fire <- time.Time{}:
		case r := <-done:
			t.Fatalf("the job ended early: %+v, err %v", r.res, r.err)
		}
	}
	tick := next()
	if tick.d != speculating.SpeculateAfter {
		t.Fatalf("the round armed a %v timer first, want the detector's %v", tick.d, speculating.SpeculateAfter)
	}
	// w1's outcome is in once its reservation is back.
	for deadline := time.After(15 * time.Second); coord.Workers()[1].Busy != 0; {
		select {
		case <-deadline:
			t.Fatal("w1's shard never came back")
		case <-time.After(time.Millisecond):
		}
	}

	cancel()
	grace := next()
	if grace.d != cancelGrace {
		t.Fatalf("the cancellation armed a %v timer, want the %v grace", grace.d, cancelGrace)
	}
	for range 2 {
		fire(tick)
		if tick = next(); tick.d != speculating.SpeculateInterval {
			t.Fatalf("the detector armed a %v timer, want its %v tick", tick.d, speculating.SpeculateInterval)
		}
	}
	mu.Lock()
	for _, id := range runs {
		if strings.Contains(id, "-b1-") {
			t.Errorf("backup %s launched for a cancelled job", id)
		}
	}
	mu.Unlock()

	fire(grace)
	r := <-done
	if r.err != nil || r.res.Solved || !r.res.Truncated {
		t.Fatalf("want the cancelled job truncated and unsolved: %+v, err %v", r.res, r.err)
	}
	if n := coord.BackendMetrics()["speculations_launched"]; n != 0 {
		t.Fatalf("speculations_launched = %d, want 0", n)
	}
	for _, wi := range coord.Workers() {
		if wi.Busy != 0 {
			t.Fatalf("slot leak after the cancelled job: %+v", wi)
		}
	}
}
