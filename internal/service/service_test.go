package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/multiwalk"
)

// fastReq is a request that solves in milliseconds.
func fastReq() Request {
	return Request{Problem: "costas", Size: 8, Walkers: 1, Seed: 1, TimeoutMS: 30_000}
}

// hardReq is a request that cannot finish before its (long) deadline:
// a large magic square restarts forever under the tuned defaults.
func hardReq(timeoutMS int64) Request {
	return Request{Problem: "magic-square", Size: 30, Walkers: 1, Seed: 1, TimeoutMS: timeoutMS}
}

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// waitForState polls until the job reaches the wanted state.
func waitForState(t *testing.T, s *Scheduler, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		job, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State == want {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	job, _ := s.Get(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, job)
	return Job{}
}

func TestSubmitWaitSolves(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 4})
	job, err := s.SubmitWait(context.Background(), Request{Problem: "costas", Size: 8, Walkers: 2, Seed: 7, TimeoutMS: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateSolved {
		t.Fatalf("state = %s, want solved (%+v)", job.State, job)
	}
	if job.Result == nil || !job.Result.Solved || len(job.Result.Solution) != 8 {
		t.Fatalf("bad result: %+v", job.Result)
	}
	if job.Result.CompletedWalkers != 2 || job.Result.Truncated {
		t.Fatalf("walker accounting wrong: %+v", job.Result)
	}
	if job.StartedAt.IsZero() || job.FinishedAt.IsZero() || job.SubmittedAt.IsZero() {
		t.Fatalf("missing timestamps: %+v", job)
	}
	if job.Request.Seed != 7 {
		t.Fatalf("request echo lost the seed: %+v", job.Request)
	}
}

func TestRegistryDrivenValidation(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 2})
	cases := []Request{
		{},                             // missing problem
		{Problem: "no-such-benchmark"}, // unknown problem
		{Problem: "costas", Size: 8, Walkers: 99},       // walkers > slots
		{Problem: "costas", Size: 8, Walkers: -1},       // negative walkers
		{Problem: "costas", Size: 8, TimeoutMS: -5},     // negative timeout
		{Problem: "costas", Size: 8, MaxIterations: -1}, // negative budget
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadRequest", i, req, err)
		}
	}
	if got := s.Stats().JobsRejected; got != int64(len(cases)) {
		t.Errorf("JobsRejected = %d, want %d", got, len(cases))
	}
}

func TestQueueFullRejection(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1, QueueDepth: 1})
	running, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, running.ID, StateRunning)

	queued, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatalf("queue with headroom rejected: %v", err)
	}
	if _, err := s.Submit(hardReq(60_000)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().JobsRejected; got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}

	// Backpressure must clear once the head job leaves the queue.
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, queued.ID, StateCancelled)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit(hardReq(60_000))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after cancelling the queued job")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeadlineExpiryCancelsJob(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 2})
	job, err := s.SubmitWait(context.Background(), hardReq(50))
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled (%+v)", job.State, job)
	}
	if !strings.Contains(job.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", job.Error)
	}
	if job.Result == nil || !job.Result.Truncated {
		t.Fatalf("deadline-expired job result not marked Truncated: %+v", job.Result)
	}
	if job.Result.TotalIterations == 0 {
		t.Fatal("job did no work before the deadline")
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1})
	job, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, s, job.ID, StateCancelled)
	if final.Result == nil || !final.Result.Truncated {
		t.Fatalf("cancelled job result not marked Truncated: %+v", final.Result)
	}
	// Cancelling a finished job is a no-op.
	again, err := s.Cancel(job.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel: %v %+v", err, again)
	}
}

// TestSubmitWaitContextExpiryReturnsHandle: an expired wait must still
// hand back the job id so the caller can cancel the live job instead
// of orphaning it in the pool.
func TestSubmitWaitContextExpiryReturnsHandle(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	job, err := s.SubmitWait(ctx, hardReq(60_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if job.ID == "" {
		t.Fatal("expired wait returned no job handle")
	}
	if job.State.Terminal() {
		t.Fatalf("job unexpectedly terminal: %+v", job)
	}
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateCancelled)
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1, QueueDepth: 4})
	blocker, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, blocker.ID, StateRunning)
	queued, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", cancelled.State)
	}
	if cancelled.StartedAt != (time.Time{}) {
		t.Fatalf("never-dispatched job has StartedAt: %+v", cancelled)
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1})
	if _, err := s.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel: %v, want ErrNotFound", err)
	}
	if _, err := s.Wait(context.Background(), "j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait: %v, want ErrNotFound", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Slots: 1})
	s.Close()
	if _, err := s.Submit(fastReq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTTLEviction(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 2, ResultTTL: 30 * time.Millisecond})
	job, err := s.SubmitWait(context.Background(), fastReq())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Get(job.ID); errors.Is(err, ErrNotFound) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never evicted past its TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseCancelsQueuedAndRunning shuts down a loaded scheduler and
// checks that every job lands in a terminal state and every goroutine
// exits.
func TestCloseCancelsQueuedAndRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Slots: 2, QueueDepth: 16})
	var ids []string
	for i := 0; i < 6; i++ {
		job, err := s.Submit(hardReq(60_000))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	time.Sleep(10 * time.Millisecond) // let the dispatcher start a couple
	s.Close()
	for _, id := range ids {
		job, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != StateCancelled {
			t.Errorf("job %s after Close: %s, want cancelled", id, job.State)
		}
	}
	// Every scheduler goroutine must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentMixedJobs is the acceptance scenario: 200+ concurrent
// mixed-problem jobs over a small pool, zero dropped results, every job
// in a correct terminal state, clean shutdown.
func TestConcurrentMixedJobs(t *testing.T) {
	const jobs = 200
	s := newTestScheduler(t, Config{Slots: 8, QueueDepth: jobs, DefaultTimeout: 30 * time.Second})
	scenarios := []Request{
		{Problem: "costas", Size: 8, Walkers: 1},
		{Problem: "costas", Size: 9, Walkers: 2},
		{Problem: "queens", Size: 20, Walkers: 1},
		{Problem: "all-interval", Size: 8, Walkers: 2},
		{Problem: "magic-square", Size: 4, Walkers: 1},
		{Problem: "queens", Size: 16, Walkers: 2},
	}

	var mu sync.Mutex
	results := make(map[string]Job, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		req := scenarios[i%len(scenarios)]
		req.Seed = uint64(i + 1)
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			// Submission itself is concurrent; retry briefly on
			// backpressure so every job is eventually admitted.
			var job Job
			var err error
			for {
				job, err = s.Submit(req)
				if !errors.Is(err, ErrQueueFull) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			final, err := s.Wait(context.Background(), job.ID)
			if err != nil {
				t.Errorf("wait %s: %v", job.ID, err)
				return
			}
			mu.Lock()
			results[job.ID] = final
			mu.Unlock()
		}(req)
	}
	wg.Wait()

	if len(results) != jobs {
		t.Fatalf("dropped results: got %d of %d", len(results), jobs)
	}
	solved := 0
	for id, job := range results {
		if !job.State.Terminal() {
			t.Errorf("job %s not terminal: %s", id, job.State)
		}
		switch job.State {
		case StateSolved:
			solved++
			if job.Result == nil || !job.Result.Solved || job.Result.Solution == nil {
				t.Errorf("job %s solved without a solution: %+v", id, job.Result)
			}
		case StateFailed:
			t.Errorf("job %s failed: %s", id, job.Error)
		}
	}
	if solved < jobs/2 {
		t.Errorf("only %d of %d tiny jobs solved", solved, jobs)
	}

	// A job's slots go back before its waiters wake, so "every Wait
	// returned" is "pool idle".
	st := s.Stats()
	if st.JobsSubmitted != jobs {
		t.Errorf("JobsSubmitted = %d, want %d", st.JobsSubmitted, jobs)
	}
	if st.JobsQueued != 0 || st.JobsRunning != 0 || st.SlotsBusy != 0 {
		t.Errorf("scheduler not quiescent: %+v", st)
	}
	if terminal := st.JobsSolved + st.JobsUnsolved + st.JobsCancelled + st.JobsFailed; terminal != jobs {
		t.Errorf("terminal counters sum to %d, want %d", terminal, jobs)
	}
	if st.Iterations == 0 {
		t.Error("iteration throughput counter never moved")
	}
}

// TestSubmitCancelChurnWhileBlocked regression-tests a scheduler
// deadlock: cancelling queued jobs while the dispatcher is head-of-line
// blocked used to leak queue-buffer slots until Submit blocked forever
// holding the scheduler lock. Churning submissions through a blocked
// queue must always either admit or reject, never hang.
func TestSubmitCancelChurnWhileBlocked(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1, QueueDepth: 2})
	blocker, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, blocker.ID, StateRunning)
	head, err := s.Submit(hardReq(60_000)) // head-of-line, slot-waiting
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*s.Config().QueueDepth+5; i++ {
			job, err := s.Submit(fastReq())
			if errors.Is(err, ErrQueueFull) {
				continue
			}
			if err != nil {
				t.Errorf("churn submit %d: %v", i, err)
				return
			}
			if _, err := s.Cancel(job.ID); err != nil {
				t.Errorf("churn cancel %d: %v", i, err)
				return
			}
		}
		// The scheduler must still be fully operational.
		if _, err := s.Get(head.ID); err != nil {
			t.Errorf("Get after churn: %v", err)
		}
		if st := s.Stats(); st.QueueDepth > s.Config().QueueDepth {
			t.Errorf("queue depth %d exceeds capacity %d", st.QueueDepth, s.Config().QueueDepth)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler deadlocked under submit/cancel churn")
	}
}

func TestSlotAccountingAcrossWalkerCounts(t *testing.T) {
	// A 4-walker job on a 4-slot pool occupies the whole pool; a
	// following 1-walker job must wait, then run.
	s := newTestScheduler(t, Config{Slots: 4, QueueDepth: 8})
	big, err := s.Submit(Request{Problem: "magic-square", Size: 30, Walkers: 4, Seed: 1, TimeoutMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, big.ID, StateRunning)
	if st := s.Stats(); st.SlotsBusy != 4 {
		t.Fatalf("SlotsBusy = %d, want 4", st.SlotsBusy)
	}
	small, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if job, _ := s.Get(small.ID); job.State != StateQueued {
		t.Fatalf("small job ran on a full pool: %s", job.State)
	}
	if _, err := s.Cancel(big.ID); err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, s, small.ID, StateSolved)
	if final.Result == nil || !final.Result.Solved {
		t.Fatalf("small job did not solve after slots freed: %+v", final)
	}
}

// TestSlotAccountingSettledWhenAwaited: a job's slots are back in the
// pool by the time a client that awaited it can look, so the gauge a
// client reads after SubmitWait never still counts its own job.
func TestSlotAccountingSettledWhenAwaited(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 2})
	for seed := uint64(1); seed <= 20; seed++ {
		req := fastReq()
		req.Seed, req.Walkers = seed, 2
		if _, err := s.SubmitWait(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.SlotsBusy != 0 || st.JobsRunning != 0 {
			t.Fatalf("job %d awaited, yet SlotsBusy = %d and JobsRunning = %d", seed, st.SlotsBusy, st.JobsRunning)
		}
	}
}

func TestExchangeJobRunsAndValidates(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 4})

	// A dependent (exchange) job reaches a terminal solved state on the
	// local backend and surfaces its adoption accounting.
	job, err := s.SubmitWait(context.Background(), Request{
		Problem: "costas", Size: 9, Walkers: 2, Seed: 11, TimeoutMS: 30_000,
		Exchange: &multiwalk.ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateSolved {
		t.Fatalf("exchange job state = %s (%+v)", job.State, job)
	}
	if job.Request.Exchange == nil || !job.Request.Exchange.Enabled {
		t.Fatalf("exchange spec not echoed in the job request: %+v", job.Request)
	}

	// The dependent-run accounting must survive condensation into the
	// transport shape: Adoptions is copied through and Yielded walkers
	// are counted.
	jr := condenseResult(&multiwalk.Result{
		Adoptions: 7,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Adoptions: 7},
			{Walker: 1, Yielded: true},
		},
	})
	if jr.Adoptions != 7 || jr.YieldedWalkers != 1 {
		t.Fatalf("exchange accounting lost in condenseResult: %+v", jr)
	}

	// Degenerate exchange tuning is a 400-class admission error, not a
	// late job failure.
	bad := []multiwalk.ExchangeOptions{
		{Enabled: true, Period: -1},
		{Enabled: true, AdoptFactor: 0.5},
		{Enabled: true, PerturbSwaps: -1},
	}
	for _, x := range bad {
		spec := x
		if _, err := s.Submit(Request{Problem: "costas", Size: 8, Walkers: 1, Exchange: &spec}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("bad exchange spec %+v admitted: %v", spec, err)
		}
	}

	// A disabled spec is inert: the job stays an independent run.
	job2, err := s.SubmitWait(context.Background(), Request{
		Problem: "costas", Size: 8, Walkers: 1, Seed: 3, TimeoutMS: 30_000,
		Exchange: &multiwalk.ExchangeOptions{Enabled: false, AdoptFactor: 0.5}, // tuning ignored when disabled
	})
	if err != nil || job2.State != StateSolved {
		t.Fatalf("disabled exchange spec broke an independent job: %v %+v", err, job2)
	}
}
