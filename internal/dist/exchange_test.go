package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
)

// exchangeFleet stands up n single-slot workers on a memNet plus a
// coordinator with a fast relay. One slot per worker means every walker
// of a k<=n job lands on its own worker — so ANY adoption recorded
// anywhere is necessarily a cross-worker adoption.
func exchangeFleet(t *testing.T, n int) *Coordinator {
	t.Helper()
	slots := make([]int, n)
	for i := range slots {
		slots[i] = 1
	}
	return newMemFleet(t, CoordinatorConfig{BoardSync: 2 * time.Millisecond}, nil, slots...)
}

// TestDistExchangeCrossWorkerAdoption is the acceptance test for the
// cross-worker cooperative scheme: a 3-worker exchange run completes
// (no more "requires a single address space" rejection) with adoptions
// on more than one walker. The greedy plan over single-slot workers
// puts each walker on its own worker process, and a walker adopts only
// the job's global best (at AdoptFactor 1.0, whenever it is behind
// it), so adoptions spread across walkers mean elites traveled between
// workers through the coordinator's relay. It drives the
// service.Backend seam (RunJob), where the old rejection lived.
func TestDistExchangeCrossWorkerAdoption(t *testing.T) {
	coord := exchangeFleet(t, 3)

	engine := tunedEngine(t, "magic-square", 14)
	engine.MaxIterations = 300_000
	engine.MaxRuns = 1
	engine.CheckEvery = 64

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := coord.RunJob(ctx, "magic-square", 14, nil, nil, multiwalk.Options{
		Walkers:  3,
		Seed:     20260729,
		Engine:   engine,
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
	adopters := 0
	for w, ws := range res.Walkers {
		if ws.Walker != w {
			t.Fatalf("walker %d identity lost: %+v", w, ws)
		}
		if ws.Adoptions > 0 {
			adopters++
		}
	}
	if adopters < 2 {
		t.Fatalf("%d adoptions on %d walker(s): the relay did not connect the workers", res.Adoptions, adopters)
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
		Exchange: multiwalk.ExchangeOptions{Enabled: true},
	}
	if err := req.Validate(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("protocol accepted virtual exchange shard: %v", err)
	}
}

// TestDistExchangeWorkerLoss: losing a worker mid-exchange must
// surface as Truncated with the lost walkers explicitly empty and
// Interrupted — no fabricated statistics — while the surviving workers
// keep cooperating through the relay and deliver their real stats.
func TestDistExchangeWorkerLoss(t *testing.T) {
	// The second worker drops every shard it is given.
	coord := newMemFleet(t, CoordinatorConfig{
		BoardSync:       2 * time.Millisecond,
		RecoverAttempts: -1, // pin the no-recovery truncation contract
	}, losesRuns("w1"), 2, 1)

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

// inversionProbe is a minimal core.Problem for relay tests: the cost
// is the permutation's inversion count, cheap to compute by hand.
type inversionProbe struct{ n int }

func (p inversionProbe) Size() int { return p.n }
func (p inversionProbe) Cost(cfg []int) int {
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
func (p inversionProbe) CostOnVariable(cfg []int, i int) int {
	e := 0
	for j := 0; j < len(cfg); j++ {
		if (j < i && cfg[j] > cfg[i]) || (j > i && cfg[i] > cfg[j]) {
			e++
		}
	}
	return e
}
func (p inversionProbe) CostIfSwap(cfg []int, cost, i, j int) int {
	cfg[i], cfg[j] = cfg[j], cfg[i]
	c := p.Cost(cfg)
	cfg[i], cfg[j] = cfg[j], cfg[i]
	return c
}
func (p inversionProbe) LiveErrors(cfg []int) []int {
	errs := make([]int, len(cfg))
	for i := range errs {
		errs[i] = p.CostOnVariable(cfg, i)
	}
	return errs
}

// TestRelayMergeVerifiesClaims: the job's best only ever improves, and
// a corrupt claim (wrong length, non-permutation, or a cost that does
// not match the configuration) never becomes it, so it can neither
// poison the job's elite pool nor stand the fleet down.
func TestRelayMergeVerifiesClaims(t *testing.T) {
	b := &jobBoard{probe: inversionProbe{n: 3}}
	best := func(cost int, cfg []int, gen uint64) {
		t.Helper()
		if b.cost != cost || !reflect.DeepEqual(b.cfg, cfg) || b.gen != gen {
			t.Fatalf("best %d %v gen %d, want %d %v gen %d", b.cost, b.cfg, b.gen, cost, cfg, gen)
		}
	}
	// The first honest claim becomes the job's best ([1,0,2] has one
	// inversion).
	if !b.merge(1, []int{1, 0, 2}) {
		t.Fatal("first honest claim refused")
	}
	best(1, []int{1, 0, 2}, 1)
	// A worse honest claim leaves it — monotone.
	if b.merge(3, []int{2, 1, 0}) {
		t.Fatal("worse claim displaced the best")
	}
	for name, claim := range map[string]struct {
		cost int
		cfg  []int
	}{
		"non-permutation": {0, []int{3, 3, 3}},
		"wrong length":    {0, []int{1, 0}},
		// The poisoning vector: a fake cost-0 claim on a non-solution
		// (its actual cost is 1) would stand the whole fleet down.
		"fake cost 0": {0, []int{1, 0, 2}},
		// Likewise a fake low cost that would monotonically block real
		// elites.
		"understated cost": {-1, []int{0, 2, 1}},
	} {
		if b.merge(claim.cost, claim.cfg) {
			t.Fatalf("%s claim merged", name)
		}
	}
	best(1, []int{1, 0, 2}, 1)
	if !b.merge(0, []int{0, 1, 2}) {
		t.Fatal("honest improvement refused")
	}
	best(0, []int{0, 1, 2}, 2)
}

// TestWorkerBoardEndpoint: a relay call publishes the job's best into
// the run's board when it carries its configuration, and takes the
// run's best back only when that beats the cost it was sent. The body
// is read strictly and capped, and a run the worker does not hold, or
// one that does not exchange, is a 404.
func TestWorkerBoardEndpoint(t *testing.T) {
	wk := NewWorker(WorkerConfig{Slots: 2})
	t.Cleanup(wk.Close)
	h := wk.Handler()
	post := func(id, body string) (BoardSync, int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs/"+id+"/board", strings.NewReader(body)))
		var out BoardSync
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
		}
		return out, rec.Code
	}
	exchange := multiwalk.ExchangeOptions{Enabled: true}
	release, run, err := wk.reserve(&RunRequest{ID: "x-s0", Mode: ModeRun, Count: 1, Exchange: exchange}, func() {})
	if err != nil {
		t.Fatal(err)
	}

	// Nothing on either side yet.
	if out, code := post("x-s0", `{"valid":false}`); code != http.StatusOK || out.Valid {
		t.Fatalf("empty relay: %+v code %d", out, code)
	}
	// The job's best crosses into the run's board, and nothing better
	// comes back.
	if out, code := post("x-s0", `{"valid":true,"cost":3,"cfg":[2,1,0]}`); code != http.StatusOK || out.Valid {
		t.Fatalf("relay of the job's best: %+v code %d", out, code)
	}
	if cost, cfg, ok := run.board.Snapshot(); !ok || cost != 3 || !reflect.DeepEqual(cfg, []int{2, 1, 0}) {
		t.Fatalf("run board after the relay: %d %v %v", cost, cfg, ok)
	}
	// A walker's improvement crosses back, once: only while it beats
	// the cost the call carries.
	run.board.Publish(1, []int{1, 0, 2})
	if out, _ := post("x-s0", `{"valid":true,"cost":3}`); !out.Valid || out.Cost != 1 || !reflect.DeepEqual(out.Cfg, []int{1, 0, 2}) {
		t.Fatalf("the run's improvement did not come back: %+v", out)
	}
	if out, _ := post("x-s0", `{"valid":true,"cost":1}`); out.Valid {
		t.Fatalf("the run's best came back although the job holds it: %+v", out)
	}
	// The body is read strictly: a second value, an unknown field or a
	// body past the cap is a bad request, not a relay of its first
	// object.
	for name, body := range map[string]string{
		"second value":  `{"valid":false}{"valid":true,"cost":0,"cfg":[0,1,2]}`,
		"unknown field": `{"valid":false,"gen":3}`,
		"over the cap":  `{"valid":false}` + strings.Repeat(" ", maxBoardSyncLen) + `{"x":1}`,
	} {
		if _, code := post("x-s0", body); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", name, code)
		}
	}
	// A run that does not exchange has no board to relay to.
	releaseY, _, err := wk.reserve(&RunRequest{ID: "y-s0", Mode: ModeRun, Count: 1}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer releaseY()
	if _, code := post("y-s0", `{"valid":false}`); code != http.StatusNotFound {
		t.Fatalf("relay to an independent run: code %d, want 404", code)
	}
	// A run that has answered is gone (a relay call racing its reply).
	release()
	if _, code := post("x-s0", `{"valid":false}`); code != http.StatusNotFound {
		t.Fatalf("relay to a released run: code %d, want 404", code)
	}
}

// relayCall is one relay call a tapped worker served.
type relayCall struct {
	host       string
	req, reply BoardSync
	code       int
}

// tapRelay serves h, recording every relay call it answers.
func tapRelay(host string, h http.Handler, record func(relayCall)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kind, _, _ := fleetCall(r); kind != "board" {
			h.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		c := relayCall{host: host}
		_ = json.Unmarshal(body, &c.req)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		c.code = rec.Code
		if c.code == http.StatusOK {
			_ = json.Unmarshal(rec.Body.Bytes(), &c.reply)
		}
		record(c)
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// TestRelayCrossesOnlyOnImprovement drives a two-worker exchange job's
// relay one fired tick at a time on a fake clock: every tick is one
// call a copy, and a configuration crosses only when it improves on
// what the receiving side holds. A worker answers with its run's best
// only when that beats the cost it was sent; a copy is sent the job's
// best only when it is better than every one delivered to it before,
// and never a configuration that copy sent itself.
func TestRelayCrossesOnlyOnImprovement(t *testing.T) {
	var mu sync.Mutex
	var calls []relayCall
	n := &memNet{hosts: make(map[string]http.Handler)}
	var urls []string
	for i := 0; i < 2; i++ {
		wk := NewWorker(WorkerConfig{Slots: 1})
		t.Cleanup(wk.Close)
		host := fmt.Sprintf("w%d", i)
		n.hosts[host] = tapRelay(host, wk.Handler(), func(c relayCall) {
			mu.Lock()
			calls = append(calls, c)
			mu.Unlock()
		})
		urls = append(urls, "http://"+host)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: &http.Client{Transport: n}, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	armed := fakeClock(coord)

	// A job with no iteration budget, cancelled after the last tick;
	// a walker that solves it first ends the ticks early.
	engine := tunedEngine(t, "costas", 18)
	engine.MaxIterations = 1 << 40
	engine.MaxRuns = 1
	engine.CheckEvery = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, JobSpec{Problem: "costas", Size: 18, Walkers: 2, Seed: 5, Engine: engine,
			Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 16, AdoptFactor: 1.0}})
		done <- err
	}()
	// Fire ticks until configurations have crossed both ways and a few
	// hundred ticks have run; each tick is one call a copy, and the next
	// is armed once its replies are in. Once both runs are registered,
	// two ticks cross one each way: both copies answer the empty job, and
	// the copy whose answer did not become the job's best is sent it.
	crossed := func() (up, down int) {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range calls {
			if c.reply.Valid {
				up++
			}
			if c.code == http.StatusOK && len(c.req.Cfg) > 0 {
				down++
			}
		}
		return up, down
	}
	tm := <-armed
	for fired := 0; tm.d == coord.boardSync; fired++ {
		if up, down := crossed(); up >= 2 && down >= 1 && fired >= 200 {
			break
		} else if fired == 20_000 {
			t.Fatalf("%d ticks moved %d configurations up and %d down", fired, up, down)
		}
		mu.Lock()
		before := len(calls)
		mu.Unlock()
		tm.fire <- time.Time{}
		tm = <-armed
		mu.Lock()
		made := len(calls) - before
		mu.Unlock()
		// Anything but the next relay tick is the grace timer of a job
		// a walker solved, which ends the ticks.
		if tm.d == coord.boardSync && made != 2 {
			t.Fatalf("tick %d made %d relay calls, want one a copy", fired, made)
		}
	}
	if up, down := crossed(); up < 2 || down < 1 {
		t.Fatalf("precondition: %d configurations went up and %d came down", up, down)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	delivered := map[string]int{} // the cost of the last best a copy was sent
	sentBy := map[string][][]int{}
	for i, c := range calls {
		if c.code != http.StatusOK {
			continue // the copy's run was not registered yet
		}
		if len(c.req.Cfg) > 0 {
			if last, ok := delivered[c.host]; ok && c.req.Cost >= last {
				t.Fatalf("call %d: %s was sent cost %d after cost %d", i, c.host, c.req.Cost, last)
			}
			for _, own := range sentBy[c.host] {
				if reflect.DeepEqual(own, c.req.Cfg) {
					t.Fatalf("call %d: %s was sent back its own configuration", i, c.host)
				}
			}
			delivered[c.host] = c.req.Cost
		}
		if c.reply.Valid {
			if c.req.Valid && c.reply.Cost >= c.req.Cost {
				t.Fatalf("call %d: %s answered cost %d to a call carrying %d", i, c.host, c.reply.Cost, c.req.Cost)
			}
			sentBy[c.host] = append(sentBy[c.host], c.reply.Cfg)
		}
	}
}

// TestRelaySkipsResolvedAndReleasedCopies: a relay tick calls every
// copy still running — one call a copy — and none whose slot has
// resolved or whose reservation is released; the tick's last reply
// arms the next. A job that has won relays nothing and arms nothing.
func TestRelaySkipsResolvedAndReleasedCopies(t *testing.T) {
	var mu sync.Mutex
	var called []string
	coord := newMemFleet(t, CoordinatorConfig{HeartbeatInterval: -1}, func(r *http.Request) error {
		if kind, _, id := fleetCall(r); kind == "board" {
			mu.Lock()
			called = append(called, id)
			mu.Unlock()
		}
		return nil
	}, 1)
	armed := fakeClock(coord)
	w := coord.reg.workers[0]
	copyOf := func(id string, released bool) *assignment {
		return &assignment{worker: w, runID: id, released: released}
	}
	j := &fleetJob{c: coord, reqCtx: context.Background(),
		in:    inbox{events: make(chan event), done: make(chan struct{})},
		board: &jobBoard{probe: inversionProbe{n: 3}, cost: 1, cfg: []int{1, 0, 2}, gen: 1}}
	j.slots = []specSlot{
		{primary: copyOf("resolved", false), resolved: true}, // a speculation loser draining
		{primary: copyOf("released", true), backup: copyOf("backup", false)},
		{primary: copyOf("live", false)},
	}
	j.relay()
	if j.relays != 2 {
		t.Fatalf("%d relay calls out, want 2", j.relays)
	}
	for range 2 {
		j.handle(<-j.in.events)
	}
	if tm := <-armed; tm.d != coord.boardSync {
		t.Fatalf("the tick's last reply armed a %v timer, want the relay's %v", tm.d, coord.boardSync)
	}
	mu.Lock()
	slices.Sort(called)
	if !slices.Equal(called, []string{"backup", "live"}) {
		t.Fatalf("relay calls went to %v, want the backup and the live copy", called)
	}
	mu.Unlock()

	j.won = true
	j.relay()
	select {
	case tm := <-armed:
		t.Fatalf("a won job armed a %v timer", tm.d)
	default:
	}
	if j.relays != 0 {
		t.Fatalf("a won job made %d relay calls", j.relays)
	}
}
