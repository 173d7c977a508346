package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
)

// exchangeFleet stands up n single-slot workers plus a coordinator
// with a fast board sync. One slot per worker means every walker of a
// k<=n job lands on its own worker process — so ANY adoption recorded
// anywhere is necessarily a cross-worker adoption.
func exchangeFleet(t *testing.T, n int) *Coordinator {
	t.Helper()
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		wk := NewWorker(WorkerConfig{Slots: 1})
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(func() { srv.Close(); wk.Close() })
		urls = append(urls, srv.URL)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, BoardSync: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestDistExchangeCrossWorkerAdoption is the acceptance test for the
// cross-worker cooperative scheme: a 3-worker exchange run completes
// (no more "requires a single address space" rejection) with at least
// one adoption that provably crossed a worker boundary. The leader —
// the only adaptive walker, pinned to worker 0 by the greedy
// shard plan over single-slot workers — descends far below what the
// random-walk laggards on workers 1 and 2 reach, so the laggards can
// only adopt elites that traveled coordinator-board-wise from another
// process. It drives the service.Backend seam (RunJob), where the old
// rejection lived.
func TestDistExchangeCrossWorkerAdoption(t *testing.T) {
	coord := exchangeFleet(t, 3)

	engine := tunedEngine(t, "magic-square", 14)
	engine.MaxIterations = 300_000
	engine.MaxRuns = 1
	engine.CheckEvery = 64
	laggard := engine
	laggard.Strategy = core.StrategyRandomWalk

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := coord.RunJob(ctx, "magic-square", 14, nil, nil, multiwalk.Options{
		Walkers: 3,
		Seed:    20260729,
		Portfolio: []multiwalk.PortfolioEntry{
			{Weight: 1, Engine: engine},  // walker 0: adaptive leader on worker 0
			{Weight: 2, Engine: laggard}, // walkers 1, 2: laggards on workers 1, 2
		},
		Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 1.0},
	})
	if err != nil {
		t.Fatalf("distributed exchange run errored: %v", err)
	}
	if res.Truncated {
		t.Fatalf("run truncated: %+v", res)
	}
	if len(res.Walkers) != 3 || res.Completed != 3 {
		t.Fatalf("want 3 completed walkers, got %d completed of %d", res.Completed, len(res.Walkers))
	}
	wantEntries := []int{0, 1, 1}
	for w, ws := range res.Walkers {
		if ws.Walker != w || ws.Entry != wantEntries[w] {
			t.Fatalf("walker %d identity lost: %+v (want entry %d)", w, ws, wantEntries[w])
		}
	}
	if res.Adoptions == 0 {
		t.Fatal("no cross-worker adoptions: the board did not connect the worker processes")
	}
	var laggardAdoptions int64
	for _, ws := range res.Walkers[1:] {
		laggardAdoptions += ws.Adoptions
	}
	if laggardAdoptions == 0 {
		t.Fatalf("all %d adoptions on the leader: laggard workers never received the elite", res.Adoptions)
	}
}

// TestDistExchangeVirtualRejected: the deterministic virtual mode has
// no concurrent peers to cooperate with; the coordinator must reject
// the combination before reserving slots, and the worker protocol
// enforces the same rule.
func TestDistExchangeVirtualRejected(t *testing.T) {
	coord := exchangeFleet(t, 1)
	_, err := coord.RunVirtual(context.Background(), JobSpec{
		Problem: "costas", Size: 8, Walkers: 1, Seed: 1,
		Engine:   tunedEngine(t, "costas", 8),
		Exchange: multiwalk.ExchangeOptions{Enabled: true},
	})
	if !errors.Is(err, errExchangeVirtual) {
		t.Fatalf("virtual exchange run not rejected: %v", err)
	}

	req := RunRequest{
		ID: "r1", Mode: ModeVirtual, Problem: "costas", Size: 8,
		TotalWalkers: 1, Count: 1,
		Exchange: multiwalk.ExchangeOptions{Enabled: true}, Board: "http://example.invalid/board",
	}
	if err := req.Validate(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("protocol accepted virtual exchange shard: %v", err)
	}
	req.Mode = ModeRun
	req.Board = ""
	if err := req.Validate(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("protocol accepted exchange shard without a board: %v", err)
	}
}

// TestDistExchangeWorkerLoss: losing a worker mid-exchange must
// surface as Truncated with the lost walkers explicitly empty and
// Interrupted — no fabricated statistics — while the surviving workers
// keep cooperating through the board and deliver their real stats.
func TestDistExchangeWorkerLoss(t *testing.T) {
	healthy := NewWorker(WorkerConfig{Slots: 2})
	healthySrv := httptest.NewServer(healthy.Handler())
	t.Cleanup(func() { healthySrv.Close(); healthy.Close() })
	started := make(chan struct{}, 1)
	lossy := lossyWorker(t, 1, started)

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:         []string{healthySrv.URL, lossy.URL},
		BoardSync:       2 * time.Millisecond,
		RecoverAttempts: -1, // pin the no-recovery truncation contract
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// An instance no walker solves inside its budget, so the healthy
	// shard runs to completion while the lossy worker's shard vanishes.
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
	if !res.Truncated || res.Solved {
		t.Fatalf("worker loss mid-exchange: want Truncated unsolved, got %+v", res)
	}
	if res.Completed != 2 {
		t.Fatalf("Completed = %d, want 2 (only the healthy shard ran)", res.Completed)
	}
	lost := res.Walkers[2]
	if lost.Result.Iterations != 0 || !lost.Result.Interrupted || lost.Result.Cost != core.CostUnknown ||
		lost.Adoptions != 0 || lost.Yielded {
		t.Fatalf("lost walker carries fabricated stats: %+v", lost)
	}
	for _, ws := range res.Walkers[:2] {
		if ws.Result.Iterations == 0 {
			t.Fatalf("healthy walker %d reported no work: %+v", ws.Walker, ws)
		}
	}
}

// hubProbe is a minimal core.Problem for board-hub tests: the cost is
// the permutation's inversion count, cheap to compute by hand.
type hubProbe struct{ n int }

func (p hubProbe) Size() int { return p.n }
func (p hubProbe) Cost(cfg []int) int {
	inv := 0
	for i := 0; i < len(cfg); i++ {
		for j := i + 1; j < len(cfg); j++ {
			if cfg[i] > cfg[j] {
				inv++
			}
		}
	}
	return inv
}
func (p hubProbe) CostOnVariable(cfg []int, i int) int {
	e := 0
	for j := 0; j < len(cfg); j++ {
		if (j < i && cfg[j] > cfg[i]) || (j > i && cfg[i] > cfg[j]) {
			e++
		}
	}
	return e
}
func (p hubProbe) CostIfSwap(cfg []int, cost, i, j int) int {
	cfg[i], cfg[j] = cfg[j], cfg[i]
	c := p.Cost(cfg)
	cfg[i], cfg[j] = cfg[j], cfg[i]
	return c
}

// TestBoardHubProtocol unit-tests the coordinator-side board endpoint:
// merge semantics, the monotone global best, and the verification of
// publishes — a corrupt claim (wrong length, non-permutation, or a
// cost that does not match the configuration) must never poison the
// job's elite pool or stand the fleet down.
func TestBoardHubProtocol(t *testing.T) {
	h := newBoardHub("", "")
	t.Cleanup(h.close)
	url, board, release, err := h.open("jobX", hubProbe{n: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)

	post := func(s BoardSync) (BoardSync, int) {
		t.Helper()
		payload, _ := json.Marshal(s)
		resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out BoardSync
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out, resp.StatusCode
	}

	// Empty-handed fetch against an empty board.
	if out, code := post(BoardSync{}); code != http.StatusOK || out.Valid {
		t.Fatalf("empty fetch: %+v code %d", out, code)
	}
	// First honest publish becomes the global best ([1,0,2] has one
	// inversion).
	if out, code := post(BoardSync{Valid: true, Cost: 1, Cfg: []int{1, 0, 2}}); code != http.StatusOK || !out.Valid || out.Cost != 1 {
		t.Fatalf("first publish: %+v code %d", out, code)
	}
	// A worse honest publish merges to the existing best — monotone.
	out, _ := post(BoardSync{Valid: true, Cost: 3, Cfg: []int{2, 1, 0}})
	if out.Cost != 1 || out.Cfg[0] != 1 {
		t.Fatalf("worse publish displaced the best: %+v", out)
	}
	// Corrupt payloads claiming an improvement are rejected, not
	// merged (non-improving claims are skipped without verification —
	// the board keeps strict improvements only, so they are inert).
	if _, code := post(BoardSync{Valid: true, Cost: 0, Cfg: []int{3, 3, 3}}); code != http.StatusBadRequest {
		t.Fatalf("non-permutation accepted: code %d", code)
	}
	if _, code := post(BoardSync{Valid: true, Cost: 0, Cfg: []int{1, 0}}); code != http.StatusBadRequest {
		t.Fatalf("wrong-length configuration accepted: code %d", code)
	}
	// The poisoning vector: a fake cost-0 claim on a non-solution (its
	// actual cost is 1) would stand the whole fleet down; the hub must
	// recompute and reject.
	if _, code := post(BoardSync{Valid: true, Cost: 0, Cfg: []int{1, 0, 2}}); code != http.StatusBadRequest {
		t.Fatalf("fake solved claim accepted: code %d", code)
	}
	// Likewise a fake low cost that would monotonically block real
	// elites.
	if _, code := post(BoardSync{Valid: true, Cost: -1, Cfg: []int{0, 2, 1}}); code != http.StatusBadRequest {
		t.Fatalf("understated cost accepted: code %d", code)
	}
	// The coordinator-side handle sees only verified state.
	if cost, cfg, ok := board.Snapshot(); !ok || cost != 1 || cfg[0] != 1 {
		t.Fatalf("coordinator-side snapshot diverged: %d %v %v", cost, cfg, ok)
	}
	// Unknown boards 404 (a straggling sync racing job completion).
	release()
	if _, code := post(BoardSync{}); code != http.StatusNotFound {
		t.Fatalf("sync against a released board: code %d, want 404", code)
	}
}

// TestRemoteBoardDirtyFlagSkipsIdleSyncs pins the change-driven sync
// behavior: an idle cache must not POST every tick — only the bounded-
// staleness refresh probe, one tick in boardRefreshTicks — while a
// local improvement still flows out promptly.
func TestRemoteBoardDirtyFlagSkipsIdleSyncs(t *testing.T) {
	h := newBoardHub("", "")
	t.Cleanup(h.close)
	url, global, release, err := h.open("jobIdle", hubProbe{n: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)

	const period = 10 * time.Millisecond
	b := newRemoteBoard(url, newBoardClient(), period)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.start(ctx)

	// Idle phase: no publish ever happens. Over ~40 ticks an
	// every-tick syncer would POST ~40 times; the dirty-flag syncer
	// probes only every boardRefreshTicks ticks.
	const idleTicks = 40
	time.Sleep(idleTicks * period)
	idleSyncs := h.mHTTPSyncs.Load()
	if idleSyncs == 0 {
		t.Fatal("idle cache never probed the board: the staleness bound is gone and laggards would never adopt")
	}
	if max := int64(idleTicks/boardRefreshTicks + 3); idleSyncs > max {
		t.Fatalf("idle cache synced %d times over %d ticks (want <= %d): no-change ticks are not being skipped", idleSyncs, idleTicks, max)
	}

	// Improvement phase: a publish must reach the global board within
	// a couple of ticks, not after the staleness window.
	b.Publish(1, []int{1, 0, 2, 3}) // one inversion under hubProbe
	deadline := time.Now().Add(20 * period)
	for {
		if cost, _, ok := global.Snapshot(); ok && cost == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("published improvement never reached the global board")
		}
		time.Sleep(period / 4)
	}
	b.stop()
}
