package cluster

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/rng"
	"repro/internal/stats"
)

func expSource(t *testing.T, mean float64, n int) *EmpiricalSource {
	t.Helper()
	r := rng.New(1)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.ExpFloat64() * mean
	}
	s, err := stats.New(xs)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewEmpiricalSource(s)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestPlatformGeometry(t *testing.T) {
	ha := HA8000()
	if ha.Cores() != 952*16 {
		t.Fatalf("HA8000 cores = %d, want %d", ha.Cores(), 952*16)
	}
	suno := Grid5000Suno()
	if suno.Cores() != 360 {
		t.Fatalf("Suno cores = %d, want 360 (45 x 8, as in the paper)", suno.Cores())
	}
	helios := Grid5000Helios()
	if helios.Cores() != 224 {
		t.Fatalf("Helios cores = %d, want 224 (56 x 4, as in the paper)", helios.Cores())
	}
	for _, p := range []Platform{ha, suno, helios} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestPlatformValidation(t *testing.T) {
	bad := Platform{Name: "x", Nodes: 0, CoresPerNode: 4, IterationsPerSecond: 1}
	if err := bad.Validate(); err == nil {
		t.Error("0 nodes accepted")
	}
	bad = Platform{Name: "x", Nodes: 1, CoresPerNode: 1, IterationsPerSecond: 0}
	if err := bad.Validate(); err == nil {
		t.Error("0 iteration rate accepted")
	}
	bad = Platform{Name: "x", Nodes: 1, CoresPerNode: 1, IterationsPerSecond: 1, NodeJitter: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestEmpiricalSource(t *testing.T) {
	s, _ := stats.New([]float64{10, 20, 30})
	src, err := NewEmpiricalSource(s)
	if err != nil {
		t.Fatal(err)
	}
	if src.Mean() != 20 {
		t.Fatalf("Mean = %v, want 20", src.Mean())
	}
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		d := src.Draw(r)
		if d != 10 && d != 20 && d != 30 {
			t.Fatalf("Draw returned %v, not an observation", d)
		}
	}
	if src.Sample().N() != 3 {
		t.Fatal("Sample accessor broken")
	}
	if _, err := NewEmpiricalSource(nil); err == nil {
		t.Fatal("nil sample accepted")
	}
}

func TestModelSource(t *testing.T) {
	m := ModelSource{Model: stats.ShiftedExp{Shift: 100, Scale: 50}}
	if m.Mean() != 150 {
		t.Fatalf("Mean = %v, want 150", m.Mean())
	}
	r := rng.New(3)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		d := m.Draw(r)
		if d < 100 {
			t.Fatalf("draw %v below the shift", d)
		}
		sum += d
	}
	if got := sum / n; math.Abs(got-150) > 2 {
		t.Fatalf("empirical mean %v, want ~150", got)
	}
}

func TestNewSimValidation(t *testing.T) {
	src := expSource(t, 100, 50)
	if _, err := NewSim(Platform{}, src); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := NewSim(HA8000(), nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestJobDeterministicAndBounded(t *testing.T) {
	sim, err := NewSim(HA8000(), expSource(t, 1000, 500))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Job(64, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Job(64, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different jobs: %+v vs %+v", a, b)
	}
	if a.WallSeconds <= 0 {
		t.Fatalf("non-positive wall time: %+v", a)
	}
	if a.NodesUsed != 4 {
		t.Fatalf("64 walkers on 16-core nodes should span 4 nodes, got %d", a.NodesUsed)
	}
}

func TestJobValidation(t *testing.T) {
	sim, _ := NewSim(Grid5000Helios(), expSource(t, 100, 50))
	if _, err := sim.Job(0, rng.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := sim.Job(225, rng.New(1)); err == nil {
		t.Error("k beyond Helios's 224 cores accepted")
	}
}

func TestJobNoJitterNoOverheadIsExactMin(t *testing.T) {
	p := Platform{
		Name: "ideal", Nodes: 8, CoresPerNode: 8,
		IterationsPerSecond: 10,
	}
	s, _ := stats.New([]float64{100, 200, 300, 400})
	src, _ := NewEmpiricalSource(s)
	sim, _ := NewSim(p, src)
	r := rng.New(4)
	jr, err := sim.Job(16, r)
	if err != nil {
		t.Fatal(err)
	}
	// With no jitter/overhead, wall = winner iterations / rate exactly.
	if math.Abs(jr.WallSeconds-jr.WinnerIterations/10) > 1e-12 {
		t.Fatalf("wall %v != winner/rate %v", jr.WallSeconds, jr.WinnerIterations/10)
	}
}

func TestSpeedupCurveShapeExponential(t *testing.T) {
	// Exponential runtimes + negligible overheads: speedup ~ k.
	p := HA8000()
	p.LaunchOverheadSec = 0
	p.CompletionLatencySec = 0
	p.LaunchStaggerSec = 0
	p.NodeJitter = 0
	sim, _ := NewSim(p, expSource(t, 100_000, 3000))
	curve, err := sim.SpeedupCurve([]int{1, 2, 4, 8, 16, 32}, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 6 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	for _, pt := range curve.Points {
		rel := pt.Speedup / float64(pt.Cores)
		if rel < 0.7 || rel > 1.4 {
			t.Fatalf("exponential speedup at k=%d is %.2f, want ~k", pt.Cores, pt.Speedup)
		}
	}
	// Monotone increasing.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Speedup < curve.Points[i-1].Speedup {
			t.Fatalf("speedup curve not monotone: %+v", curve.Points)
		}
	}
}

func TestSpeedupCurveSaturatesWithFloor(t *testing.T) {
	// Runtime floor at 80% of the mean: speedup must saturate near
	// mean/shift = 1.25, far from linear.
	p := HA8000()
	r := rng.New(5)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 80_000 + r.ExpFloat64()*20_000
	}
	s, _ := stats.New(xs)
	src, _ := NewEmpiricalSource(s)
	sim, _ := NewSim(p, src)
	curve, err := sim.SpeedupCurve([]int{1, 16, 64, 256}, 300, 12)
	if err != nil {
		t.Fatal(err)
	}
	last := curve.Points[len(curve.Points)-1]
	if last.Speedup > 1.5 {
		t.Fatalf("floored distribution speedup at 256 cores = %.2f, should saturate near 1.25", last.Speedup)
	}
}

func TestSpeedupCurveValidation(t *testing.T) {
	sim, _ := NewSim(HA8000(), expSource(t, 100, 50))
	if _, err := sim.SpeedupCurve(nil, 100, 1); err == nil {
		t.Error("empty ks accepted")
	}
	if _, err := sim.SpeedupCurve([]int{1}, 1, 1); err == nil {
		t.Error("reps=1 accepted")
	}
	if _, err := sim.SpeedupCurve([]int{1 << 30}, 10, 1); err == nil {
		t.Error("k over capacity accepted")
	}
}

func TestLaunchOverheadHurtsSmallJobs(t *testing.T) {
	// With tiny sequential runtimes, the Grid's launch overhead must
	// depress speedups relative to the supercomputer — the paper's
	// perfect-square anomaly at 128/256 cores, in reverse.
	fast := expSource(t, 0.5, 2000) // ~0.5s sequential at rate 1
	ha := HA8000()
	suno := Grid5000Suno()
	simHA, _ := NewSim(ha, fast)
	simSuno, _ := NewSim(suno, fast)
	cHA, err := simHA.SpeedupCurve([]int{64}, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	cSuno, err := simSuno.SpeedupCurve([]int{64}, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Suno's 2s launch overhead dominates a 0.5s job; HA8000's 0.5s
	// overhead dominates less.
	if cSuno.Points[0].Speedup >= cHA.Points[0].Speedup {
		t.Fatalf("expected overhead to depress Suno speedup: HA=%v Suno=%v",
			cHA.Points[0].Speedup, cSuno.Points[0].Speedup)
	}
}

// TestSimulateFDBenchmark runs the platform model on the finite-domain
// timetable benchmark end to end: measure a real iteration
// distribution from seeded sequential solves, wrap it in an empirical
// source, and simulate the paper's multi-walk speedup on HA8000.
func TestSimulateFDBenchmark(t *testing.T) {
	const size, runs = 20, 40
	params := map[string]int{"slots": 6, "rooms": 4, "teachers": 4}
	iters := make([]float64, 0, runs)
	for run := 0; run < runs; run++ {
		p, err := problems.NewWithParams("timetable", size, params)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.TunedOptions(p)
		opts.Seed = 7777 + uint64(run)
		res, err := core.Solve(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("run %d unsolved: %+v", run, res)
		}
		iters = append(iters, float64(res.Iterations))
	}
	sample, err := stats.New(iters)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewEmpiricalSource(sample)
	if err != nil {
		t.Fatal(err)
	}
	pf := HA8000()
	pf.IterationsPerSecond = sample.Mean() // dilate: sequential mean ~= 1s
	sim, err := NewSim(pf, src)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := sim.SpeedupCurve([]int{1, 4, 16}, 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	if curve.SeqWall <= 0 {
		t.Fatalf("non-positive sequential wall %v", curve.SeqWall)
	}
	last := 0.0
	for _, pt := range curve.Points {
		if pt.MeanWall <= 0 || pt.Speedup <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
		if pt.Speedup < last*0.8 {
			t.Fatalf("speedup collapsed at %d cores: %+v after %v", pt.Cores, pt, last)
		}
		last = pt.Speedup
	}
}
