package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/rng"
)

// seedCalibration populates a store with a known shifted-exponential
// population for costas at the given size: shift 200, scale 1800
// iterations, at `rate` iterations/second. Saturation speedup is
// 2000/200 = 10, so marginal-gain sizing has room to climb.
func seedCalibration(t *testing.T, size int, rate float64) *calibrate.Store {
	t.Helper()
	st := calibrate.NewStore()
	r := rng.New(4)
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = 200 + 1800*r.ExpFloat64()
	}
	err := st.Record(calibrate.Key{Problem: "costas", Size: size}, calibrate.Batch{
		Source:      "bench",
		RecordedAt:  time.Now(),
		Sequential:  true,
		Walkers:     1,
		Iters:       xs,
		ItersPerSec: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAutoSizeMarginalGain(t *testing.T) {
	st := seedCalibration(t, 10, 1e6)
	s := New(Config{Slots: 8, Calibration: st})
	defer s.Close()
	job, err := s.Submit(Request{Problem: "costas", Size: 10, AutoSize: &AutoSizeSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	// With shift 200 / scale 1800 the curve is still steep at k=8
	// (marginal gain ~9% from 7 to 8), so default MinGain uses the
	// whole pool.
	if job.Request.Walkers != 8 {
		t.Fatalf("chosen walkers = %d, want 8", job.Request.Walkers)
	}
	if job.Request.AutoSize == nil {
		t.Fatal("autosize spec not echoed in snapshot")
	}
	// A strict gain cutoff stops earlier; MaxWalkers caps harder.
	job, err = s.Submit(Request{Problem: "costas", Size: 10, AutoSize: &AutoSizeSpec{MinGain: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if job.Request.Walkers >= 8 || job.Request.Walkers < 1 {
		t.Fatalf("strict-gain walkers = %d, want in [1, 8)", job.Request.Walkers)
	}
	job, err = s.Submit(Request{Problem: "costas", Size: 10, AutoSize: &AutoSizeSpec{MaxWalkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if job.Request.Walkers != 2 {
		t.Fatalf("capped walkers = %d, want 2", job.Request.Walkers)
	}
	if got := s.Stats().AutoSized; got != 3 {
		t.Fatalf("autosize_predictions = %d, want 3", got)
	}
}

func TestAutoSizeTargetP95(t *testing.T) {
	// Rate 1e6 iters/s: the sequential P95 is 200+1800*ln(20) ~ 5592
	// iters ~ 5.6ms. A 3ms target (3000 iters) needs
	// 200 + (1800/k)*ln 20 <= 3000 -> k >= 1.93, so k = 2.
	st := seedCalibration(t, 12, 1e6)
	s := New(Config{Slots: 16, Calibration: st})
	defer s.Close()
	job, err := s.Submit(Request{Problem: "costas", Size: 12, AutoSize: &AutoSizeSpec{TargetP95: "3ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if job.Request.Walkers != 2 {
		t.Fatalf("chosen walkers = %d, want 2", job.Request.Walkers)
	}
	// A 250us target is under the 200-iteration floor (200us) plus any
	// exponential tail the pool can shave... at k=16 the P95 is
	// 200 + (1800/16)*ln 20 = 537 iters > 250: unsatisfiable.
	_, err = s.Submit(Request{Problem: "costas", Size: 12, AutoSize: &AutoSizeSpec{TargetP95: "250us"}})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	if errors.Is(err, ErrBadRequest) {
		t.Fatal("unsatisfiable must not read as a bad request")
	}
	st2 := s.Stats()
	if st2.AutoSized != 1 || st2.AutoRejected != 1 {
		t.Fatalf("counters = %d/%d, want 1/1", st2.AutoSized, st2.AutoRejected)
	}
}

func TestAutoSizeRejections(t *testing.T) {
	st := seedCalibration(t, 10, 1e6)
	s := New(Config{Slots: 4, Calibration: st})
	defer s.Close()
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"uncalibrated problem", Request{Problem: "queens", AutoSize: &AutoSizeSpec{}}, ErrNoCalibration},
		{"uncalibrated size", Request{Problem: "costas", Size: 11, AutoSize: &AutoSizeSpec{}}, ErrNoCalibration},
		{"explicit walkers too", Request{Problem: "costas", Size: 10, Walkers: 2, AutoSize: &AutoSizeSpec{}}, ErrBadRequest},
		{"bad target", Request{Problem: "costas", Size: 10, AutoSize: &AutoSizeSpec{TargetP95: "soon"}}, ErrBadRequest},
		{"negative target", Request{Problem: "costas", Size: 10, AutoSize: &AutoSizeSpec{TargetP95: "-1s"}}, ErrBadRequest},
		{"bad min_gain", Request{Problem: "costas", Size: 10, AutoSize: &AutoSizeSpec{MinGain: 2}}, ErrBadRequest},
		{"bad budget", Request{Problem: "costas", Size: 10, MaxIterations: -1, AutoSize: &AutoSizeSpec{}}, ErrBadRequest},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// A server with no store at all: typed, not a crash.
	s2 := New(Config{Slots: 2})
	defer s2.Close()
	if _, err := s2.Submit(Request{Problem: "costas", AutoSize: &AutoSizeSpec{}}); !errors.Is(err, ErrNoCalibration) {
		t.Fatalf("storeless autosize: err = %v, want ErrNoCalibration", err)
	}
}

// TestLiveFeed checks that solved jobs flow back into the calibration
// store: single-walker runs as sequential draws, multi-walker wins as
// biased (rate + measured-speedup) evidence only.
func TestLiveFeed(t *testing.T) {
	st := calibrate.NewStore()
	s := New(Config{Slots: 4, Calibration: st})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key := calibrate.Key{Problem: "costas", Size: 7}
	for i := 0; i < 10; i++ {
		job, err := s.SubmitWait(ctx, Request{Problem: "costas", Size: 7, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if job.State != StateSolved {
			t.Fatalf("run %d: state %s", i, job.State)
		}
	}
	res, err := st.Resolve(key)
	if err != nil {
		t.Fatalf("live feed left store unresolvable: %v", err)
	}
	if res.Samples != 10 {
		t.Fatalf("sequential samples = %d, want 10", res.Samples)
	}
	// Multi-walker solves must NOT add sequential samples.
	job, err := s.SubmitWait(ctx, Request{Problem: "costas", Size: 7, Walkers: 2, Seed: 99})
	if err != nil || job.State != StateSolved {
		t.Fatalf("k=2 run: %v / %v", job.State, err)
	}
	res, err = st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 10 {
		t.Fatalf("k=2 solve leaked into sequential sample: n = %d", res.Samples)
	}
	obs, err := st.ObservedSpeedups(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || obs[0].Walkers != 2 || obs[0].Runs != 1 {
		t.Fatalf("observed speedups = %+v", obs)
	}
}
