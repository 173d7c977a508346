package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// gateBackend is a controllable Backend for scheduler-policy tests:
// every RunJob announces its job (by seed — the tests tag jobs with
// distinct explicit seeds) on started, then blocks until the test
// finishes it. Dispatch order is therefore fully observable and fully
// test-controlled.
type gateBackend struct {
	slots    atomic.Int64
	started  chan uint64
	onChange atomic.Pointer[func()]

	mu    sync.Mutex
	gates map[uint64]chan struct{}
}

func newGateBackend(slots int) *gateBackend {
	b := &gateBackend{started: make(chan uint64, 64), gates: make(map[uint64]chan struct{})}
	b.slots.Store(int64(slots))
	return b
}

func (b *gateBackend) Name() string { return "gate" }
func (b *gateBackend) Slots() int   { return int(b.slots.Load()) }
func (b *gateBackend) Close()       {}

func (b *gateBackend) gate(seed uint64) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.gates[seed]
	if !ok {
		g = make(chan struct{})
		b.gates[seed] = g
	}
	return g
}

// finish releases the job tagged with seed (idempotent per job; each
// test finishes a job once).
func (b *gateBackend) finish(seed uint64) { close(b.gate(seed)) }

func (b *gateBackend) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	b.started <- opts.Seed
	select {
	case <-b.gate(opts.Seed):
	case <-ctx.Done():
	}
	return multiwalk.Result{Winner: -1, Completed: opts.Walkers}, nil
}

func newGateScheduler(t *testing.T, slots int, tenants map[string]TenantPolicy) (*Scheduler, *gateBackend) {
	t.Helper()
	b := newGateBackend(slots)
	s := New(Config{Backend: b, Tenants: tenants, DefaultTimeout: time.Minute})
	t.Cleanup(s.Close)
	return s, b
}

func submitTagged(t *testing.T, s *Scheduler, tenant, priority string, walkers int, seed uint64) {
	t.Helper()
	_, err := s.Submit(Request{
		Problem: "queens", Size: 8, Walkers: walkers, Seed: seed,
		Tenant: tenant, Priority: priority,
	})
	if err != nil {
		t.Fatalf("submit seed %d: %v", seed, err)
	}
}

func nextStart(t *testing.T, b *gateBackend) uint64 {
	t.Helper()
	select {
	case s := <-b.started:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a dispatch")
		return 0
	}
}

func expectStart(t *testing.T, b *gateBackend, want uint64) {
	t.Helper()
	if got := nextStart(t, b); got != want {
		t.Fatalf("dispatched seed %d, want %d", got, want)
	}
}

// assertNoStart asserts nothing dispatches within a grace window —
// used to pin "this job must wait" states.
func assertNoStart(t *testing.T, b *gateBackend) {
	t.Helper()
	select {
	case s := <-b.started:
		t.Fatalf("unexpected dispatch of seed %d", s)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTenantFairnessNoStarvation: a tenant flooding the queue cannot
// starve a newcomer. With one slot held and tenant a's backlog queued
// ahead, tenant b's first job must dispatch next — a has accrued
// service charge, b has none — even though strict FIFO would run all
// of a's backlog first.
func TestTenantFairnessNoStarvation(t *testing.T) {
	s, b := newGateScheduler(t, 1, nil)

	submitTagged(t, s, "a", "", 1, 1)
	expectStart(t, b, 1)
	for _, seed := range []uint64{2, 3, 4} {
		submitTagged(t, s, "a", "", 1, seed)
	}
	submitTagged(t, s, "b", "", 1, 100)

	b.finish(1)
	expectStart(t, b, 100) // the newcomer overtakes the flood
	b.finish(100)
	expectStart(t, b, 2) // then a's backlog resumes in arrival order
	b.finish(2)
	expectStart(t, b, 3)
	b.finish(3)
	expectStart(t, b, 4)
	b.finish(4)
}

// TestTenantFairnessIgnoresDispatcherTiming: which job runs next is
// decided by the queue and the ledgers when a slot frees, not by what
// the dispatcher saw when it last looked. Here it has surely looked —
// and found a's second job, alone in the queue, not to fit — before b's
// first job arrives; b, with nothing charged, still goes first.
func TestTenantFairnessIgnoresDispatcherTiming(t *testing.T) {
	s, b := newGateScheduler(t, 1, nil)

	submitTagged(t, s, "a", "", 1, 1)
	expectStart(t, b, 1)
	submitTagged(t, s, "a", "", 1, 2)
	assertNoStart(t, b)
	submitTagged(t, s, "b", "", 1, 100)

	b.finish(1)
	expectStart(t, b, 100)
	b.finish(100)
	expectStart(t, b, 2)
	b.finish(2)
}

// TestTenantWideJobNotBackfilled: a job wider than the free slots is
// waited for, not overtaken. With one of two slots freed, a later
// one-walker job of the more-charged tenant would fit and the two-walker
// head of the uncharged tenant does not; nothing starts until the second
// slot frees, and then the wide job does.
func TestTenantWideJobNotBackfilled(t *testing.T) {
	s, b := newGateScheduler(t, 2, nil)

	submitTagged(t, s, "busy", "", 1, 1)
	submitTagged(t, s, "busy", "", 1, 2)
	for _, got := range []uint64{nextStart(t, b), nextStart(t, b)} {
		if got != 1 && got != 2 {
			t.Fatalf("dispatched seed %d, want 1 and 2", got)
		}
	}
	submitTagged(t, s, "wide", "", 2, 10)
	submitTagged(t, s, "busy", "", 1, 3)

	b.finish(1)
	assertNoStart(t, b)
	b.finish(2)
	expectStart(t, b, 10)
	b.finish(10)
	expectStart(t, b, 3)
	b.finish(3)
}

// TestTenantWeightedShare: under saturation a weight-4 tenant
// dispatches about four jobs for every one of a weight-1 tenant's.
func TestTenantWeightedShare(t *testing.T) {
	s, b := newGateScheduler(t, 1, map[string]TenantPolicy{
		"gold": {Weight: 4},
	})

	submitTagged(t, s, "warmup", "", 1, 1)
	expectStart(t, b, 1)
	for _, seed := range []uint64{11, 12, 13, 14} {
		submitTagged(t, s, "gold", "", 1, seed)
	}
	for _, seed := range []uint64{21, 22, 23, 24} {
		submitTagged(t, s, "silver", "", 1, seed)
	}

	b.finish(1)
	gold := 0
	var order []uint64
	for i := 0; i < 5; i++ {
		seed := nextStart(t, b)
		order = append(order, seed)
		if seed < 20 {
			gold++
		}
		b.finish(seed)
	}
	// Per dispatch, gold is charged 1/4 and silver 1/1; over the first
	// five post-warmup dispatches the 4:1 ratio must show exactly.
	if gold != 4 {
		t.Fatalf("gold won %d of the first 5 dispatches (want 4): order %v", gold, order)
	}
	for i := 0; i < 3; i++ {
		seed := nextStart(t, b)
		b.finish(seed)
	}
}

// TestPriorityClasses: classes are strict — a queued high job always
// beats normal and low, regardless of arrival order; fairness only
// orders jobs within one class.
func TestPriorityClasses(t *testing.T) {
	s, b := newGateScheduler(t, 1, nil)

	submitTagged(t, s, "t", "normal", 1, 1)
	expectStart(t, b, 1)
	submitTagged(t, s, "t", "low", 1, 30)
	submitTagged(t, s, "t", "normal", 1, 20)
	submitTagged(t, s, "t", "high", 1, 10)

	b.finish(1)
	expectStart(t, b, 10)
	b.finish(10)
	expectStart(t, b, 20)
	b.finish(20)
	expectStart(t, b, 30)
	b.finish(30)
}

// TestTenantQuota: a tenant at its MaxSlots cap waits without blocking
// other tenants — its queued job is skipped, not waited for — and
// dispatches as soon as its own release makes room.
func TestTenantQuota(t *testing.T) {
	s, b := newGateScheduler(t, 2, map[string]TenantPolicy{
		"capped": {MaxSlots: 1},
	})

	submitTagged(t, s, "capped", "", 1, 1)
	expectStart(t, b, 1)
	submitTagged(t, s, "capped", "", 1, 2) // would exceed the quota
	assertNoStart(t, b)
	submitTagged(t, s, "other", "", 1, 3) // behind seed 2 in the queue
	expectStart(t, b, 3)                  // ...but not behind its quota

	b.finish(1) // frees capped's only slot
	expectStart(t, b, 2)
	b.finish(2)
	b.finish(3)
}

// TestElasticPoolGrowth: the scheduler's admission pool tracks the
// backend's live capacity. A job waiting for slots dispatches when the
// fleet grows — no release, poll or resubmission involved.
func TestElasticPoolGrowth(t *testing.T) {
	s, b := newGateScheduler(t, 1, nil)

	submitTagged(t, s, "t", "", 1, 1)
	expectStart(t, b, 1)
	submitTagged(t, s, "t", "", 1, 2)
	assertNoStart(t, b) // pool exhausted

	b.slots.Store(2) // a worker joins
	b.notify()
	expectStart(t, b, 2)

	if st := s.Stats(); st.Slots != 2 {
		t.Fatalf("stats pool size = %d, want 2 after growth", st.Slots)
	}
	b.finish(1)
	b.finish(2)
}

// notify is gateBackend's capacity-change hook; installed by the
// scheduler through the CapacityNotifier interface.
func (b *gateBackend) NotifyCapacity(f func()) { b.onChange.Store(&f) }
func (b *gateBackend) notify() {
	if f := b.onChange.Load(); f != nil {
		(*f)()
	}
}

// TestBestCostExcludesUnknownSentinel is the regression test for the
// CostUnknown audit: walkers that never ran (lost shards, cancelled
// sweeps) carry the math.MaxInt sentinel, which must never surface as
// a real cost in the transport result.
func TestBestCostExcludesUnknownSentinel(t *testing.T) {
	res := &multiwalk.Result{
		Winner: -1, Completed: 1, Truncated: true,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Result: core.Result{Iterations: 100, Cost: 7}},
			{Walker: 1, Result: core.Result{Cost: core.CostUnknown, Interrupted: true}},
		},
	}
	jr := condenseResult(res)
	if jr.BestCost != 7 {
		t.Fatalf("BestCost = %d, want 7 (the sentinel leaked)", jr.BestCost)
	}

	allLost := &multiwalk.Result{
		Winner: -1, Truncated: true,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Result: core.Result{Cost: core.CostUnknown, Interrupted: true}},
		},
	}
	if jr := condenseResult(allLost); jr.BestCost != -1 {
		t.Fatalf("BestCost = %d with no surviving walker, want -1", jr.BestCost)
	}

	solved := &multiwalk.Result{
		Solved: true, Winner: 0, Completed: 1,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Result: core.Result{Solved: true, Iterations: 42}},
		},
	}
	if jr := condenseResult(solved); jr.BestCost != 0 {
		t.Fatalf("BestCost = %d for a solved job, want 0", jr.BestCost)
	}
}

// TestPriorityValidation: unknown priorities are a 400-class error at
// admission, and tenant names are length-bounded.
func TestPriorityValidation(t *testing.T) {
	s, _ := newGateScheduler(t, 1, nil)
	if _, err := s.Submit(Request{Problem: "queens", Size: 8, Priority: "urgent"}); err == nil {
		t.Fatal("unknown priority admitted")
	}
	long := make([]byte, maxTenantLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := s.Submit(Request{Problem: "queens", Size: 8, Tenant: string(long)}); err == nil {
		t.Fatal("oversized tenant name admitted")
	}
}
