// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the
// experiment index). The pipeline for the speedup figures is:
//
//  1. Collect — draw R sequential walks of a benchmark and record the
//     runtime distribution, in iterations (the machine-independent work
//     unit) and seconds. Every walk comes from one sampler: walk g of
//     row r is walker g of the multiwalk.RunVirtual job whose master
//     seed is derived from (seed, r), so a row's first k walks are a
//     k-walker job. Collect pools rows 8 wide; validate and
//     predict-accuracy read k <= 8 off the rows after them.
//  2. Predict — the order-statistics estimator E[min_k] from
//     internal/stats gives the hardware-independent speedup curve.
//  3. Simulate — internal/cluster replays the multi-walk jobs on the
//     paper's platform models (HA8000, Grid'5000) including launch
//     overheads and node jitter, once per (benchmark, platform).
//
// The paper's instances take CPU-hours sequentially; the default Scale
// uses smaller instances (DESIGN.md §2), so every figure regenerates in
// minutes on a laptop. That their runtime distributions belong to the
// paper-size family is untested (ROADMAP item 20).
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/stats"
)

// Scale selects instance sizes for the experiment suite.
type Scale int

const (
	// ScaleSmall uses laptop-friendly instances (default).
	ScaleSmall Scale = iota
	// ScaleTiny uses the smallest meaningful instances; used by `go
	// test` benches so the full suite stays fast.
	ScaleTiny
	// ScalePaper uses the paper's instance sizes (CPU-hours; only for
	// a real cluster or very patient users).
	ScalePaper
)

// ParseScale converts a CLI string into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small", "":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("bench: unknown scale %q (tiny|small|paper)", s)
	}
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Workload is one benchmark instance plus the sample size used to
// estimate its runtime distribution.
type Workload struct {
	// Benchmark is the registry name (problems.Names).
	Benchmark string
	// Size is the instance parameter.
	Size int
	// Runs is the number of sequential solves collected.
	Runs int
}

// String implements fmt.Stringer.
func (w Workload) String() string {
	return fmt.Sprintf("%s-%d", w.Benchmark, w.Size)
}

// PaperWorkloads returns the benchmark instances for the given scale,
// keyed by benchmark name, restricted to the four benchmarks of the
// paper's evaluation.
func PaperWorkloads(scale Scale) map[string]Workload {
	switch scale {
	case ScaleTiny:
		return map[string]Workload{
			"all-interval":   {"all-interval", 12, 60},
			"perfect-square": {"perfect-square", 9, 60},
			"magic-square":   {"magic-square", 6, 60},
			"costas":         {"costas", 10, 60},
		}
	case ScalePaper:
		return map[string]Workload{
			"all-interval":   {"all-interval", 700, 50},
			"perfect-square": {"perfect-square", 21, 50},
			"magic-square":   {"magic-square", 100, 50},
			"costas":         {"costas", 22, 50},
		}
	default: // ScaleSmall
		// Sample sizes are chosen so the order-statistics estimator
		// stays meaningful at the paper's 256-core points (n >> k) while
		// the whole collection finishes in minutes on one core.
		return map[string]Workload{
			"all-interval":   {"all-interval", 20, 1000},
			"perfect-square": {"perfect-square", 9, 1000},
			"magic-square":   {"magic-square", 10, 500},
			"costas":         {"costas", 14, 1000},
		}
	}
}

// paperSeqSeconds gives the order of magnitude of the paper's
// *sequential* solving times per benchmark (HA8000, paper-size
// instances): all-interval 700 and magic-square 100 run tens of minutes
// to hours, perfect-square finishes in a couple of minutes (the paper
// notes its parallel times drop under a second, where "other mechanisms
// interfere"), and Costas 22 "takes many hours" (≈256 cores x 1 minute
// under ideal speedup). The platform simulator dilates our scaled-down
// instances to these durations so launch overheads and jitter have the
// same relative weight they had in the paper — part of the hardware
// substitution documented in DESIGN.md §2.
var paperSeqSeconds = map[string]float64{
	"all-interval":   2000,
	"perfect-square": 120,
	"magic-square":   1500,
	"costas":         15000,
}

// PaperSeqSeconds returns the paper-scale sequential duration used to
// dilate simulated time for a benchmark, defaulting to 1000s for
// benchmarks outside the paper's evaluation.
func PaperSeqSeconds(benchmark string) float64 {
	if v, ok := paperSeqSeconds[benchmark]; ok {
		return v
	}
	return 1000
}

// Distribution is the measured sequential runtime distribution of a
// workload, the input to both speedup predictors.
type Distribution struct {
	Workload Workload
	// Iters is the distribution of iterations-to-solution (restarts
	// included), the machine-independent runtime.
	Iters *stats.Sample
	// Seconds is the matching wall-clock distribution on this machine.
	Seconds *stats.Sample
	// ItersPerSecond calibrates the platform simulator: measured
	// iteration throughput of one local core on this benchmark.
	ItersPerSecond float64
	// Model is the fitted shifted-exponential runtime model.
	Model stats.ShiftedExp
	// sampler drew the walks; heldOut reads the rows after them.
	sampler *sampler
}

// SimItersPerSecond returns the iteration rate that makes the simulated
// sequential mean match the paper's reported duration scale for this
// benchmark (time dilation — see PaperSeqSeconds).
func (d *Distribution) SimItersPerSecond() float64 {
	return d.Iters.Mean() / PaperSeqSeconds(d.Workload.Benchmark)
}

// Collect pools w.Runs sequential walks from the sampler of (w, seed)
// and assembles the Distribution. A walk cut short by the context
// aborts the collection with an error.
func Collect(ctx context.Context, w Workload, seed uint64) (*Distribution, error) {
	if w.Runs < 2 {
		return nil, fmt.Errorf("bench: workload %s needs >= 2 runs, got %d", w, w.Runs)
	}
	s, err := newSampler(w, seed)
	if err != nil {
		return nil, err
	}
	iters, secs := make([]int64, 0, w.Runs), make([]float64, 0, w.Runs)
	err = s.walks(ctx, w.Runs, func(res core.Result) {
		iters, secs = append(iters, res.Iterations), append(secs, res.Elapsed.Seconds())
	})
	if err != nil {
		return nil, err
	}
	is, err := stats.FromInts(iters)
	if err != nil {
		return nil, err
	}
	ss, err := stats.New(secs)
	if err != nil {
		return nil, err
	}
	ips := 1e9 // degenerate: instant solves
	if ss.Mean() > 0 {
		ips = is.Mean() / ss.Mean()
	}
	return &Distribution{
		Workload:       w,
		Iters:          is,
		Seconds:        ss,
		ItersPerSecond: ips,
		Model:          stats.FitShiftedExp(is),
		sampler:        s,
	}, nil
}

// rowWidth is the width of the rows Collect pools: the largest walker
// count any table measures.
const rowWidth = 8

// sampler is the one source of the harness's walks: walk g of row r is
// walker g of the RunVirtual job of factory and engine whose master
// seed is rowSeed(r).
type sampler struct {
	w       Workload
	factory problems.Factory
	engine  core.Options
	seed    uint64
}

// newSampler is the sampler of w's tuned engine under seed.
func newSampler(w Workload, seed uint64) (*sampler, error) {
	engine, factory, err := problems.Resolve(w.Benchmark, w.Size, nil)
	if err != nil {
		return nil, err
	}
	return &sampler{w: w, factory: factory, engine: engine, seed: seed}, nil
}

// rowSeed is row r's master seed. The row sits above the seed's low 32
// bits, so two seeds below 2^32 share no row.
func (s *sampler) rowSeed(r int) uint64 { return s.seed + uint64(r)<<32 }

// runRow runs the first width walks of row r, every one of which must
// solve (with unlimited restarts only a cancelled context stops one).
func (s *sampler) runRow(ctx context.Context, r, width int) ([]multiwalk.WalkerStat, error) {
	res, err := multiwalk.RunVirtual(ctx, s.factory, multiwalk.Options{Walkers: width, Seed: s.rowSeed(r), Engine: s.engine})
	for _, st := range res.Walkers {
		if err == nil && !st.Result.Solved {
			err = errors.Join(fmt.Errorf("bench: %s walk %d of row %d unsolved", s.w, st.Walker, r), ctx.Err())
		}
	}
	return res.Walkers, err
}

// walks hands n walks to each, pooled from rows 0, 1, … rowWidth walks
// wide; the last row runs only the walks it hands on.
func (s *sampler) walks(ctx context.Context, n int, each func(core.Result)) error {
	for r := 0; n > 0; r++ {
		row, err := s.runRow(ctx, r, min(rowWidth, n))
		if err != nil {
			return err
		}
		for _, st := range row {
			each(st.Result)
		}
		n -= len(row)
	}
	return nil
}

// heldOut reads each k of ks off reps held-out rows of d's sampler,
// the rows after those Collect pooled: it returns the mean over the
// rows of the winner iterations of each row's first k walks, which is
// the mean winner iterations of reps k-walker RunVirtual jobs, and that
// mean's standard error over the rows (0 for one row).
func (d *Distribution) heldOut(ctx context.Context, reps int, ks []int) (means, ses []float64, err error) {
	means = make([]float64, len(ks))
	perK := make([][]float64, len(ks))
	first := (d.Workload.Runs + rowWidth - 1) / rowWidth
	for r := first; r < first+reps; r++ {
		row, err := d.sampler.runRow(ctx, r, slices.Max(ks))
		if err != nil {
			return nil, nil, err
		}
		_, iters := prefixWinners(row)
		for i, k := range ks {
			// Summed in this order, the means recompute the committed
			// BENCH_predicted_speedup.json to the last bit.
			means[i] += float64(iters[k-1]) / float64(reps)
			perK[i] = append(perK[i], float64(iters[k-1]))
		}
	}
	for _, xs := range perK {
		s, err := stats.New(xs)
		if err != nil {
			return nil, nil, err
		}
		ses = append(ses, s.Std()/math.Sqrt(float64(reps)))
	}
	return means, ses, nil
}

// prefixWinners returns, for each k from 1 to len(row), the winner of
// the row's first k walks and its iterations by RunVirtual's rule: the
// fewest iterations, the first walk on a tie. Every walk must have
// solved.
func prefixWinners(row []multiwalk.WalkerStat) (winners []int, iters []int64) {
	best := 0
	for g, st := range row {
		if st.Result.Iterations < row[best].Result.Iterations {
			best = g
		}
		winners, iters = append(winners, best), append(iters, row[best].Result.Iterations)
	}
	return winners, iters
}
