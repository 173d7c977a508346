package service

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// funcBackend runs every job through run.
type funcBackend struct {
	slots int
	run   func(ctx context.Context, opts multiwalk.Options) (multiwalk.Result, error)
}

func (b *funcBackend) Name() string { return "func" }
func (b *funcBackend) Slots() int   { return b.slots }
func (b *funcBackend) Close()       {}

func (b *funcBackend) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	return b.run(ctx, opts)
}

// onSubmitWait reports whether SubmitWait is on the calling goroutine's
// stack, i.e. whether a backend was called on the waiting caller's
// goroutine rather than on a runner the dispatcher started.
func onSubmitWait() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Scheduler).SubmitWait") {
			return true
		}
		if !more {
			return false
		}
	}
}

// waitSubmitted returns once the scheduler has admitted n jobs.
func waitSubmitted(t *testing.T, s *Scheduler, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.Stats().JobsSubmitted < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs admitted", s.Stats().JobsSubmitted, n)
		}
	}
}

// TestInlineRunLedger: a waited job on an idle pool runs on its caller's
// goroutine and leaves the tenant ledger as a dispatched job does — one
// dispatch, nothing held or queued, the up-front charge plus at most the
// job's own walker-time — and the pool idle.
func TestInlineRunLedger(t *testing.T) {
	inline := make(map[uint64]bool) // by seed; one job runs at a time
	b := &funcBackend{slots: 2, run: func(ctx context.Context, opts multiwalk.Options) (multiwalk.Result, error) {
		inline[opts.Seed] = onSubmitWait()
		return multiwalk.Result{Winner: -1, Completed: opts.Walkers}, nil
	}}
	const walkers, weight = 2, 2
	s := newTestScheduler(t, Config{Backend: b, Tenants: map[string]TenantPolicy{
		"dispatched": {Weight: weight}, "inline": {Weight: weight},
	}})
	req := Request{Problem: "queens", Size: 8, Walkers: walkers, Seed: 1, Tenant: "dispatched"}
	queued, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	dispatched, err := s.Wait(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	req.Seed, req.Tenant = 2, "inline"
	waited, err := s.SubmitWait(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if inline[1] || !inline[2] {
		t.Fatalf("ran on SubmitWait's goroutine: Submit's job %v, SubmitWait's %v; want false, true", inline[1], inline[2])
	}

	st := s.Stats()
	if st.SlotsBusy != 0 || st.JobsRunning != 0 || st.JobsQueued != 0 || st.JobsSubmitted != 2 || st.JobsUnsolved != 2 {
		t.Fatalf("pool after both jobs: %+v", st)
	}
	for _, job := range []Job{dispatched, waited} {
		if job.State != StateUnsolved || job.StartedAt.IsZero() {
			t.Fatalf("job %s: %+v", job.Request.Tenant, job)
		}
		got := st.Tenants[job.Request.Tenant]
		upFront := float64(walkers) / weight
		ran := walkers * job.FinishedAt.Sub(job.StartedAt).Seconds() / weight
		if got.SlotsBusy != 0 || got.Queued != 0 || got.Dispatched != 1 || got.Charge < upFront || got.Charge > upFront+ran {
			t.Errorf("tenant %s ledger %+v, want 1 dispatched, nothing held or queued, charge in [%g, %g]",
				job.Request.Tenant, got, upFront, upFront+ran)
		}
	}
}

// TestInlineRunDoesNotOvertake: with a slot free but a wider job queued
// for both, a waited job queues behind it instead of running at once,
// just as an asynchronous one would (TestTenantWideJobNotBackfilled).
func TestInlineRunDoesNotOvertake(t *testing.T) {
	s, b := newGateScheduler(t, 2, nil)
	submitTagged(t, s, "busy", "", 1, 1)
	expectStart(t, b, 1)
	submitTagged(t, s, "wide", "", 2, 10)

	waited := make(chan Job, 1)
	go func() {
		job, err := s.SubmitWait(context.Background(), Request{Problem: "queens", Size: 8, Walkers: 1, Seed: 3, Tenant: "busy"})
		if err != nil {
			t.Error(err)
		}
		waited <- job
	}()
	waitSubmitted(t, s, 3)
	assertNoStart(t, b)
	b.finish(1)
	expectStart(t, b, 10)
	b.finish(10)
	expectStart(t, b, 3)
	b.finish(3)
	if job := <-waited; !job.State.Terminal() {
		t.Fatalf("waited job: %+v", job)
	}
}

// TestInlineRunQuotaBlockedQueues: a waited job whose tenant is at its
// MaxSlots cap takes the queue although a slot is free and nothing is
// queued, and starts when its tenant's own release makes room.
func TestInlineRunQuotaBlockedQueues(t *testing.T) {
	s, b := newGateScheduler(t, 2, map[string]TenantPolicy{"capped": {MaxSlots: 1}})
	submitTagged(t, s, "capped", "", 1, 1)
	expectStart(t, b, 1)

	waited := make(chan Job, 1)
	go func() {
		job, err := s.SubmitWait(context.Background(), Request{Problem: "queens", Size: 8, Walkers: 1, Seed: 2, Tenant: "capped"})
		if err != nil {
			t.Error(err)
		}
		waited <- job
	}()
	waitSubmitted(t, s, 2)
	assertNoStart(t, b)
	if st := s.Stats(); st.JobsQueued != 1 || st.SlotsBusy != 1 {
		t.Fatalf("quota-blocked waited job: %+v, want it queued beside one busy slot", st)
	}
	b.finish(1)
	expectStart(t, b, 2)
	b.finish(2)
	if job := <-waited; !job.State.Terminal() {
		t.Fatalf("waited job: %+v", job)
	}
}

// TestCloseWaitsForInlineJob: Close returns only once a job running on
// a SubmitWait caller's goroutine has finished, as it does for one the
// dispatcher started. The backend here ignores the cancellation Close
// sends, so only the job's end can release Close.
func TestCloseWaitsForInlineJob(t *testing.T) {
	started, release := make(chan bool, 1), make(chan struct{})
	b := &funcBackend{slots: 2, run: func(ctx context.Context, opts multiwalk.Options) (multiwalk.Result, error) {
		started <- onSubmitWait()
		<-release
		return multiwalk.Result{Winner: -1, Completed: opts.Walkers}, nil
	}}
	s := New(Config{Backend: b})
	waited := make(chan Job, 1)
	go func() {
		job, err := s.SubmitWait(context.Background(), Request{Problem: "queens", Size: 8, Walkers: 2, Seed: 1})
		if err != nil {
			t.Error(err)
		}
		waited <- job
	}()
	if !<-started {
		t.Fatal("the waited job did not run on its caller's goroutine")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with an inline job still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the inline job finished")
	}
	if job := <-waited; !job.State.Terminal() {
		t.Fatalf("waited job after Close: %+v", job)
	}
}

// TestBackendPanicFailsJob: a backend that panics fails the job — on the
// waiting caller's goroutine and on a runner the dispatcher started
// alike — with its slots back in the pool, and Close still returns.
func TestBackendPanicFailsJob(t *testing.T) {
	b := &funcBackend{slots: 2, run: func(context.Context, multiwalk.Options) (multiwalk.Result, error) {
		panic("backend bug")
	}}
	s := New(Config{Backend: b})
	req := Request{Problem: "queens", Size: 8, Walkers: 2, Seed: 1}
	inline, err := s.SubmitWait(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	dispatched, err := s.Wait(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{inline, dispatched} {
		if job.State != StateFailed || !strings.Contains(job.Error, "backend panicked: backend bug") {
			t.Errorf("job %s: state %s, error %q; want failed with the panic", job.ID, job.State, job.Error)
		}
	}
	if st := s.Stats(); st.SlotsBusy != 0 || st.JobsRunning != 0 || st.JobsFailed != 2 {
		t.Errorf("after two panicking jobs: %+v, want the pool idle and two failed", st)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs after a panicking job")
	}
}
