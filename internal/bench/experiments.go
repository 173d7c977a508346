package bench

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/stats"
)

// CoreCounts is the ladder of core counts of the paper's Figs. 1-2.
var CoreCounts = []int{1, 16, 32, 64, 128, 256}

// CostasCoreCounts is the ladder of Fig. 3 (speedups w.r.t. 32 cores).
var CostasCoreCounts = []int{32, 64, 128, 256}

// simReps is the number of simulated jobs per (benchmark, platform,
// core-count) point.
const simReps = 400

// Suite bundles everything the experiment commands need: collected
// distributions plus derived artifacts, so figures can share the
// expensive collection step. It is not safe for concurrent use.
type Suite struct {
	Scale Scale
	Seed  uint64
	Dists map[string]*Distribution
	// curves holds each (benchmark, platform) curve once simulated.
	curves map[[2]string]cluster.Curve
}

// NewSuite collects the runtime distributions of the paper's four
// benchmarks at the given scale. This is the expensive step — everything
// downstream is simulation and estimation.
func NewSuite(ctx context.Context, scale Scale, seed uint64) (*Suite, error) {
	s := &Suite{Scale: scale, Seed: seed, Dists: map[string]*Distribution{}}
	for name, w := range PaperWorkloads(scale) {
		d, err := Collect(ctx, w, seed)
		if err != nil {
			return nil, fmt.Errorf("bench: collecting %s: %w", w, err)
		}
		s.Dists[name] = d
	}
	return s, nil
}

// csplibBenchmarks are the three CSPLib benchmarks of Figs. 1-2, in
// presentation order.
var csplibBenchmarks = []string{"all-interval", "perfect-square", "magic-square"}

// platformFor builds the platform model with the benchmark's
// time-dilated iteration rate: simulated jobs run at the paper's
// duration scale, so platform overheads keep their original relative
// weight (DESIGN.md §2).
func platformFor(base cluster.Platform, d *Distribution) cluster.Platform {
	base.IterationsPerSecond = d.SimItersPerSecond()
	return base
}

// curve is the simulated speedup curve of benchmark name on pf at the
// core counts of CoreCounts that pf has. It is simulated on the first
// call and kept, so times, fig1 and fig2 print the same curve.
func (s *Suite) curve(name string, pf cluster.Platform) (cluster.Curve, error) {
	key := [2]string{name, pf.Name}
	if c, ok := s.curves[key]; ok {
		return c, nil
	}
	d, ok := s.Dists[name]
	if !ok {
		return cluster.Curve{}, fmt.Errorf("bench: no distribution for %s", name)
	}
	src, err := cluster.NewEmpiricalSource(d.Iters)
	if err != nil {
		return cluster.Curve{}, err
	}
	sim, err := cluster.NewSim(platformFor(pf, d), src)
	if err != nil {
		return cluster.Curve{}, err
	}
	ks := slices.DeleteFunc(slices.Clone(CoreCounts), func(k int) bool { return k > pf.Cores() })
	c, err := sim.SpeedupCurve(ks, simReps, s.Seed+uint64(pf.Cores()))
	if err != nil {
		return cluster.Curve{}, err
	}
	if s.curves == nil {
		s.curves = map[[2]string]cluster.Curve{}
	}
	s.curves[key] = c
	return c, nil
}

// speedupFigure builds one speedup-vs-cores figure (Fig. 1 or Fig. 2):
// the times table's rows of platform for the CSPLib benchmarks, beside
// the two hardware-free predictions.
func (s *Suite) speedupFigure(id, title string, platform cluster.Platform, paperShape string) (*Table, map[string][]float64, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"benchmark", "cores", "wall(s)", "speedup", "orderstat-pred", "model-pred"},
	}
	series := map[string][]float64{}
	for _, name := range csplibBenchmarks {
		curve, err := s.curve(name, platform)
		if err != nil {
			return nil, nil, err
		}
		d := s.Dists[name]
		for _, pt := range curve.Points {
			pred, err := d.Iters.Speedup(pt.Cores)
			if err != nil {
				return nil, nil, err
			}
			t.Rows = append(t.Rows, []string{
				d.Workload.String(),
				fmt.Sprintf("%d", pt.Cores),
				fmt.Sprintf("%.3f", pt.MeanWall),
				fmt.Sprintf("%.1f", pt.Speedup),
				fmt.Sprintf("%.1f", pred),
				fmt.Sprintf("%.1f", d.Model.Speedup(pt.Cores)),
			})
			series[name] = append(series[name], pt.Speedup)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("wall(s), speedup: the times table's %s rows, simulated multi-walk jobs relative to the 1-core mean", platform.Name),
		"orderstat-pred: hardware-free E[T]/E[min_k] from the measured runtime distribution",
		"model-pred: fitted shifted-exponential model (saturation = mean/shift)",
		"simulated durations are dilated to the paper's sequential time scale (DESIGN.md §2)",
		paperShape,
	)
	return t, series, nil
}

// Fig1 reproduces Figure 1: speedups on HA8000 for the CSPLib
// benchmarks.
func (s *Suite) Fig1() (*Table, map[string][]float64, error) {
	return s.speedupFigure("fig1", "speedups on HA8000 (paper Fig. 1)", cluster.HA8000(),
		"paper shape: ~30x at 64 cores, ~40x at 128, >50x at 256, flattening away from linear")
}

// Fig2 reproduces Figure 2: speedups on Grid'5000 (Suno).
func (s *Suite) Fig2() (*Table, map[string][]float64, error) {
	return s.speedupFigure("fig2", "speedups on Grid'5000 Suno (paper Fig. 2)", cluster.Grid5000Suno(),
		"paper shape: nearly identical to HA8000; perfect-square diverges at 128-256 cores when runtimes drop under a second")
}

// Fig3 reproduces Figure 3: Costas array speedups w.r.t. 32 cores on a
// log-log scale, with the ideal line and the fitted slope.
func (s *Suite) Fig3() (*Table, error) {
	d, ok := s.Dists["costas"]
	if !ok {
		return nil, fmt.Errorf("bench: no costas distribution")
	}
	t, err := HA8000Curve(d, s.Seed+3)
	if err != nil {
		return nil, err
	}
	t.ID = "fig3"
	t.Title = fmt.Sprintf("Costas (%s) speedup w.r.t. %d cores, log-log (paper Fig. 3)", d.Workload, CostasCoreCounts[0])
	t.Notes = append(t.Notes, "paper shape: ideal linear speedup (log-log slope 1.0)")
	return t, nil
}

// HA8000Curve simulates d's multi-walk jobs on the HA8000 model at
// CostasCoreCounts and tabulates each point's speedup w.r.t. the first
// (32 cores, the paper's Fig. 3 reference) beside the ideal line and the
// order-statistics prediction, with the fitted log-log slope.
func HA8000Curve(d *Distribution, seed uint64) (*Table, error) {
	// Use the fitted shifted-exponential model as the simulation source:
	// at 256 cores E[min_k] drops below the resolution of any feasible
	// empirical sample (the estimator saturates at the sample minimum),
	// while the fit is justified by the measured memorylessness (CV ~ 1,
	// QQ-exponential R^2 ~ 1 — reported in the table notes).
	src := cluster.ModelSource{Model: d.Model}
	sim, err := cluster.NewSim(platformFor(cluster.HA8000(), d), src)
	if err != nil {
		return nil, err
	}
	curve, err := sim.SpeedupCurve(CostasCoreCounts, simReps, seed)
	if err != nil {
		return nil, err
	}
	base := curve.Points[0]
	t := &Table{
		ID:     "ha8000",
		Title:  fmt.Sprintf("%s speedup w.r.t. %d cores on the HA8000 model, log-log", d.Workload, base.Cores),
		Header: []string{"cores", "wall(s)", "speedup-vs-32", "ideal", "orderstat-pred"},
	}
	xs := make([]float64, 0, len(curve.Points))
	ys := make([]float64, 0, len(curve.Points))
	pred32, err := d.Iters.ExpectedMin(base.Cores)
	if err != nil {
		return nil, err
	}
	for _, pt := range curve.Points {
		rel := base.MeanWall / pt.MeanWall
		ideal := float64(pt.Cores) / float64(base.Cores)
		predK, err := d.Iters.ExpectedMin(pt.Cores)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.Cores),
			fmt.Sprintf("%.3f", pt.MeanWall),
			fmt.Sprintf("%.2f", rel),
			fmt.Sprintf("%.2f", ideal),
			fmt.Sprintf("%.2f", pred32/predK),
		})
		xs = append(xs, float64(pt.Cores))
		ys = append(ys, rel)
	}
	slope, _, err := stats.LogLogSlope(xs, ys)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("log-log slope = %.3f (ideal linear speedup = 1.0)", slope),
		fmt.Sprintf("runtime distribution: CV = %.2f (exponential = 1.0), QQ-exp R^2 = %.3f — justifies the fitted-tail simulation source", d.Iters.CV(), d.Iters.QQExponentialR2()),
		"orderstat-pred saturates at the empirical sample's resolution for k >> n/10; the simulation uses the fitted tail",
		"simulated durations are dilated to the paper's sequential time scale (DESIGN.md §2)",
	)
	return t, nil
}

// SummaryTable reproduces the paper's headline claims (§2-§3 text):
// CSPLib speedups of ~30/~40/>50 at 64/128/256 cores and ideal Costas
// speedup.
func (s *Suite) SummaryTable() (*Table, error) {
	t := &Table{
		ID:     "summary",
		Title:  "headline claims: paper vs this reproduction",
		Header: []string{"claim", "paper", "measured"},
	}
	claims := []struct {
		k     int
		paper string
	}{{64, "about 30"}, {128, "about 40"}, {256, "more than 50"}}
	for _, c := range claims {
		sum := 0.0
		for _, name := range csplibBenchmarks {
			sp, err := s.Dists[name].Iters.Speedup(c.k)
			if err != nil {
				return nil, err
			}
			sum += sp
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("CSPLib mean speedup @ %d cores", c.k),
			c.paper,
			fmt.Sprintf("%.1f", sum/float64(len(csplibBenchmarks))),
		})
	}
	d := s.Dists["costas"]
	xs := make([]float64, 0, len(CostasCoreCounts))
	ys := make([]float64, 0, len(CostasCoreCounts))
	for _, k := range CostasCoreCounts {
		xs = append(xs, float64(k))
		ys = append(ys, d.Model.Speedup(k)/d.Model.Speedup(32))
	}
	slope, _, err := stats.LogLogSlope(xs, ys)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Costas log-log slope (32..256 cores)", "1.0 (ideal)", fmt.Sprintf("%.3f", slope)})
	t.Rows = append(t.Rows, []string{"Costas runtime CV (exponential = 1)", "memoryless", fmt.Sprintf("%.2f", d.Iters.CV())})
	t.Notes = append(t.Notes,
		"measured speedups use the order-statistics estimator on this machine's runtime distributions",
		"instance sizes are scaled down from the paper's (DESIGN.md §2); that their runtime distributions share the paper's family is untested, so shapes, not absolute numbers, are the claim",
	)
	return t, nil
}

// TimesTable reproduces the EvoCOP'11-style execution-time tables
// behind Figs. 1-2: per benchmark and platform, the mean wall time and
// speedup at every core count.
func (s *Suite) TimesTable() (*Table, error) {
	t := &Table{
		ID:     "times",
		Title:  "execution times by platform (EvoCOP'11-style table behind Figs. 1-2)",
		Header: []string{"benchmark", "platform", "cores", "wall(s)", "speedup"},
	}
	for _, name := range append(slices.Clone(csplibBenchmarks), "costas") {
		for _, pf := range []cluster.Platform{cluster.HA8000(), cluster.Grid5000Suno(), cluster.Grid5000Helios()} {
			curve, err := s.curve(name, pf)
			if err != nil {
				return nil, err
			}
			for _, pt := range curve.Points {
				t.Rows = append(t.Rows, []string{
					s.Dists[name].Workload.String(), pf.Name,
					fmt.Sprintf("%d", pt.Cores),
					fmt.Sprintf("%.3f", pt.MeanWall),
					fmt.Sprintf("%.1f", pt.Speedup),
				})
			}
		}
	}
	t.Notes = append(t.Notes, "Helios capped at its 224 cores, as in the paper")
	return t, nil
}

// DistributionTable is EXP-D1 over the suite's workloads, sorted by
// name.
func (s *Suite) DistributionTable() (*Table, error) {
	dists := make([]*Distribution, 0, len(s.Dists))
	for _, name := range slices.Sorted(maps.Keys(s.Dists)) {
		dists = append(dists, s.Dists[name])
	}
	return Diagnostics(dists...), nil
}

// Diagnostics renders the runtime-distribution diagnostics explaining
// the two speedup regimes (EXP-D1), one row per distribution: the
// iteration summary, the exponentiality tests and the
// shifted-exponential fit with its saturation speedup.
func Diagnostics(dists ...*Distribution) *Table {
	t := &Table{
		ID:     "distrib",
		Title:  "sequential runtime distributions (the mechanism behind Figs. 1-3)",
		Header: []string{"benchmark", "runs", "mean-iters", "median", "min", "max", "CV", "QQ-exp-R2", "fit-shift", "fit-scale", "saturation"},
	}
	for _, d := range dists {
		sat := d.Model.SaturationSpeedup()
		satStr := "inf (ideal)"
		if sat < 1e6 {
			satStr = fmt.Sprintf("%.1f", sat)
		}
		t.Rows = append(t.Rows, []string{
			d.Workload.String(),
			fmt.Sprintf("%d", d.Iters.N()),
			fmt.Sprintf("%.0f", d.Iters.Mean()),
			fmt.Sprintf("%.0f", d.Iters.Median()),
			fmt.Sprintf("%.0f", d.Iters.Min()),
			fmt.Sprintf("%.0f", d.Iters.Max()),
			fmt.Sprintf("%.3f", d.Iters.CV()),
			fmt.Sprintf("%.3f", d.Iters.QQExponentialR2()),
			fmt.Sprintf("%.0f", d.Model.Shift),
			fmt.Sprintf("%.0f", d.Model.Scale),
			satStr,
		})
	}
	t.Notes = append(t.Notes,
		"CV ~ 1 and high QQ-R2: memoryless runtimes, multi-walk speedup stays linear (Costas/Fig. 3)",
		"CV < 1 with a positive fitted shift: a runtime floor saturates the speedup (Figs. 1-2 flattening)",
	)
	return t
}

// ValidationTable cross-checks the order-statistics predictor against
// real RunVirtual executions at small k — the end-to-end consistency
// check tying the estimator to the actual parallel engine. Every k is
// read off the same reps held-out rows (Distribution.heldOut), and
// printed with its standard error over them.
func (s *Suite) ValidationTable(ctx context.Context, ks []int, reps int) (*Table, error) {
	t := &Table{
		ID:     "validate",
		Title:  "order-statistics predictor vs real multi-walk runs (winner iterations)",
		Header: []string{"benchmark", "walkers", "E[min_k] predicted", "measured mean", "SE", "ratio"},
	}
	for _, name := range slices.Sorted(maps.Keys(s.Dists)) {
		d := s.Dists[name]
		meas, ses, err := d.heldOut(ctx, reps, ks)
		if err != nil {
			return nil, err
		}
		for i, k := range ks {
			pred, err := d.Iters.ExpectedMin(k)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				d.Workload.String(),
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%.0f", pred),
				fmt.Sprintf("%.0f", meas[i]),
				fmt.Sprintf("%.0f", ses[i]),
				fmt.Sprintf("%.2f", meas[i]/pred),
			})
		}
	}
	t.Notes = append(t.Notes,
		"SE: the measured mean's standard error over the held-out runs; a row with |measured - predicted| < 2 SE is consistent with the predictor",
		"rows consistent at every k validate using the estimator for core counts beyond this machine")
	return t, nil
}

// AblationComm is EXP-A1: dependent (communicating) vs independent
// multi-walk, the paper's future-work question.
func AblationComm(ctx context.Context, w Workload, ks []int, reps int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "ablation-comm",
		Title:  fmt.Sprintf("independent vs dependent multi-walk on %s (paper §3 future work)", w),
		Header: []string{"walkers", "scheme", "solved", "mean winner iters", "mean total iters"},
	}
	factory, err := problems.NewFactory(w.Benchmark, w.Size)
	if err != nil {
		return nil, err
	}
	probe, err := factory.New()
	if err != nil {
		return nil, err
	}
	engine := core.TunedOptions(probe)
	factory.Recycle(probe)
	for _, k := range ks {
		for _, scheme := range []string{"independent", "dependent"} {
			var winSum, totSum float64
			solved := 0
			for rep := 0; rep < reps; rep++ {
				opts := multiwalk.Options{
					Walkers: k,
					Seed:    seed + uint64(rep)*104729 + uint64(k),
					Engine:  engine,
				}
				if scheme == "dependent" {
					opts.Exchange = multiwalk.ExchangeOptions{
						Enabled:     true,
						Period:      512,
						AdoptFactor: 1.5,
					}
				}
				res, err := multiwalk.Run(ctx, factory, opts)
				if err != nil {
					return nil, err
				}
				if res.Solved {
					solved++
					winSum += float64(res.WinnerIterations)
				}
				totSum += float64(res.TotalIterations)
			}
			row := []string{
				fmt.Sprintf("%d", k), scheme,
				fmt.Sprintf("%d/%d", solved, reps),
				"-", fmt.Sprintf("%.0f", totSum/float64(reps)),
			}
			if solved > 0 {
				row[3] = fmt.Sprintf("%.0f", winSum/float64(solved))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"the paper conjectures communication struggles to beat independent walks; lower winner iterations = better",
		"dependent scheme: best-cost board, elite adoption when lagging 1.5x, perturbation on adoption",
	)
	return t, nil
}

// AblationKnobs is EXP-A2: engine parameter sensitivity on one
// benchmark, covering the design choices DESIGN.md calls out (tabu
// tenure, reset fraction, plateau escape probability, move selection).
// Every variant draws runsPer walks from the same rows of the sampler of
// (w, seed), each under its own engine options; a walk the context cuts
// short is an error, so every variant reports runsPer solved.
func AblationKnobs(ctx context.Context, w Workload, runsPer int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "ablation-knobs",
		Title:  fmt.Sprintf("engine knob ablation on %s (mean iterations to solve)", w),
		Header: []string{"variant", "solved", "mean iters", "mean resets"},
	}
	base, err := newSampler(w, seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mod  func(o *core.Options)
	}{
		{"tuned (baseline)", func(o *core.Options) {}},
		{"freeze=1", func(o *core.Options) { o.FreezeLocMin = 1 }},
		{"freeze=10", func(o *core.Options) { o.FreezeLocMin = 10 }},
		{"no-plateau-escape", func(o *core.Options) { o.ProbSelectLocMin = 0 }},
		{"plateau-escape=0.5", func(o *core.Options) { o.ProbSelectLocMin = 0.5 }},
		{"reset-frac=0.02", func(o *core.Options) { o.ResetFraction = 0.02 }},
		{"reset-frac=0.5", func(o *core.Options) { o.ResetFraction = 0.5 }},
		{"first-best", func(o *core.Options) { o.FirstBest = true }},
	}
	for _, v := range variants {
		smp := *base
		v.mod(&smp.engine)
		var iterSum, resetSum float64
		err := smp.walks(ctx, runsPer, func(res core.Result) {
			iterSum += float64(res.Iterations)
			resetSum += float64(res.Resets)
		})
		if err != nil {
			return nil, err
		}
		n := float64(runsPer)
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%d/%d", runsPer, runsPer), fmt.Sprintf("%.0f", iterSum/n), fmt.Sprintf("%.0f", resetSum/n)})
	}
	return t, nil
}
