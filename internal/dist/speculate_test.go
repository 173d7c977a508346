package dist

import (
	"bytes"
	"context"
	"encoding/json"
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

// heldWorker fronts a real worker with a reverse proxy that holds
// every shard dispatch (POST /v1/run) for delay before forwarding —
// the straggler shape the detector hunts: a worker that answers health
// probes and cancels instantly but whose shards make no progress.
func heldWorker(t *testing.T, wk *Worker, delay time.Duration) *httptest.Server {
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
		if r.Method == http.MethodPost && r.URL.Path == "/v1/run" {
			// Drain the body before holding: the net/http server only
			// watches for client disconnects once the request body is
			// consumed, and the held dispatch must abort the moment the
			// coordinator severs it, not sleep out the full hold.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
		}
		px.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// speculatingCoordinator builds a coordinator over the given worker
// URLs with speculation tuned for test cadence.
func speculatingCoordinator(t *testing.T, urls ...string) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           urls,
		Dynamic:           len(urls) == 0,
		HeartbeatInterval: -1,
		BoardSync:         2 * time.Millisecond,
		Speculate:         true,
		SpeculateAfter:    50 * time.Millisecond,
		SpeculateInterval: 25 * time.Millisecond,
		ProgressInterval:  10 * time.Millisecond,
	})
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
// suppression matrix: a job whose first shard is dispatched to a held
// worker, with speculation on, must come back exactly as a
// never-straggled run — every walker reported once with its global
// identity, and (independent mode) bit-for-bit the clean fleet's
// stats even when the straggler's copy lands after the backup.
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

			clean := newFleet(t, 2, 2, 2)
			ref, err := clean.coord.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Solved {
				t.Fatalf("reference run solved — budget %d too generous for the bit-for-bit comparison", engine.MaxIterations)
			}

			straggler := NewWorker(WorkerConfig{Slots: 2})
			t.Cleanup(func() { straggler.Close() })
			held := heldWorker(t, straggler, 150*time.Millisecond)
			var urls []string
			urls = append(urls, held.URL)
			for i := 0; i < 2; i++ {
				wk := NewWorker(WorkerConfig{Slots: 2})
				srv := httptest.NewServer(wk.Handler())
				t.Cleanup(func() { srv.Close(); wk.Close() })
				urls = append(urls, srv.URL)
			}
			coord := speculatingCoordinator(t, urls...)

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
	straggler := NewWorker(WorkerConfig{Slots: 2})
	t.Cleanup(func() { straggler.Close() })
	held := heldWorker(t, straggler, 10*time.Minute)
	var urls []string
	urls = append(urls, held.URL)
	for i := 0; i < 2; i++ {
		wk := NewWorker(WorkerConfig{Slots: 2})
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(func() { srv.Close(); wk.Close() })
		urls = append(urls, srv.URL)
	}
	coord := speculatingCoordinator(t, urls...)

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
	// detector fires; its cancel is acked instantly through the proxy
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
			if wi.URL == held.URL && wi.Busy == 0 {
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
// then drops the connection like lossyWorker; the backup is held until
// the coordinator has taken the loss (the primary's reservation is
// gone, which runShard's return precedes), so the loss is delivered
// while the backup still has its whole search to run.
func TestSpeculationBackupOutlivesLostPrimary(t *testing.T) {
	engine := tunedEngine(t, "costas", 18)
	engine.MaxIterations = 4000
	engine.MaxRuns = 1
	job := JobSpec{Problem: "costas", Size: 18, Walkers: 4, Seed: 99, Engine: engine}
	ref, err := newFleet(t, 2, 2, 2).coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Solved {
		t.Fatalf("reference run solved — budget %d too generous for the bit-for-bit comparison", engine.MaxIterations)
	}

	var coord atomic.Pointer[Coordinator]
	backupOut := make(chan struct{})
	var backupOnce sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "slots": 2})
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-backupOut:
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
	dropper := httptest.NewServer(mux)
	t.Cleanup(dropper.Close)
	// primaryLost reports that the coordinator has taken the dropped
	// primary's outcome: the dropping worker (the first to join) holds no
	// reservation any more.
	primaryLost := func() bool {
		c := coord.Load()
		return c != nil && c.Workers()[0].Busy == 0
	}

	urls := []string{dropper.URL}
	for i := 0; i < 2; i++ {
		wk := NewWorker(WorkerConfig{Slots: 2})
		inner := wk.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/run" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					w.WriteHeader(http.StatusBadGateway)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(body, &req); err != nil {
					t.Error(err)
				}
				if strings.Contains(req.ID, "-b1-") {
					backupOnce.Do(func() { close(backupOut) })
					tick := time.NewTicker(time.Millisecond)
					defer tick.Stop()
					for !primaryLost() {
						select {
						case <-tick.C:
						case <-r.Context().Done():
							return
						}
					}
				}
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { srv.Close(); wk.Close() })
		urls = append(urls, srv.URL)
	}
	c := speculatingCoordinator(t, urls...)
	coord.Store(c)

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
	started := make(chan struct{}, 1)
	lossy := lossyWorker(t, 2, started)
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           []string{lossy.URL},
		RecoverAttempts:   3,
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

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
