package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
)

// This file is the iteration-rate measurement layer: the sequential
// hot-loop speedometer behind `cmd/experiments -bench-json` and the CI
// bench-smoke job. The paper's speedup model multiplies the number of
// walkers by the *sequential* iteration rate, so this harness measures
// exactly that — engine iterations per second per benchmark, plus heap
// allocations per Solve call (the loop itself allocates nothing, which
// TestHotLoopZeroAllocs pins; what is left is set-up). Results are
// committed as BENCH_iter_rate.json so every future PR has a trajectory
// to compare against.

// IterRate is the measured hot-loop rate of one benchmark.
type IterRate struct {
	// Benchmark is the registry name, Size the instance parameter used.
	Benchmark string `json:"benchmark"`
	Size      int    `json:"size"`
	// Iterations is the total number of engine iterations timed and
	// Seconds the wall-clock time they took.
	Iterations int64   `json:"iterations"`
	Seconds    float64 `json:"seconds"`
	// ItersPerSec is Iterations/Seconds — the headline number.
	ItersPerSec float64 `json:"iters_per_sec"`
	// Solves is the number of Solve calls the iterations were spread
	// over, and AllocsPerSolve the heap allocations of one: the per-call
	// set-up (engine, state, buffers, an FD problem's domain reduction),
	// the loop adding nothing to it.
	Solves         int     `json:"solves"`
	AllocsPerSolve float64 `json:"allocs_per_solve"`
	// AllocsPerIter is that same set-up divided by however many
	// iterations a solve of this instance happens to take: 0.3 on
	// queens-100, which is solved in about 29 iterations, is 9
	// allocations per Solve, not a third of an allocation in the loop.
	// Kept for comparison with older reports; read AllocsPerSolve.
	AllocsPerIter float64 `json:"allocs_per_iter"`
}

// IterRateReport is the JSON document committed as BENCH_iter_rate.json.
type IterRateReport struct {
	// Note records how the report was produced.
	Note string `json:"note"`
	// GoVersion is the toolchain that produced the numbers; rates are
	// only comparable within the same major toolchain and machine class.
	GoVersion string `json:"go_version"`
	// NumCPU and GOMAXPROCS record the host the numbers were taken on
	// (0 in reports written before the fields existed).
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Results is keyed by benchmark name.
	Results map[string]IterRate `json:"results"`
}

// IterRateSizes returns the per-benchmark instance sizes the harness
// measures: the registry default sizes, which are the laptop-scale
// instances every other experiment uses.
func IterRateSizes() map[string]int {
	sizes := make(map[string]int, len(problems.Names()))
	for _, name := range problems.Names() {
		info, err := problems.Describe(name)
		if err != nil {
			continue
		}
		sizes[name] = info.DefaultSize
	}
	return sizes
}

// MeasureIterRate runs the sequential engine on the named benchmark
// until at least minIters iterations have been executed (across as many
// seeded Solve calls as that takes) and reports the iteration rate.
// The engine runs with tuned options and a Monitor that stops each
// Solve once the remaining budget is consumed, so the measurement is
// bounded even on instances the engine would solve slowly.
func MeasureIterRate(ctx context.Context, name string, size int, seed uint64, minIters int64) (IterRate, error) {
	p, err := problems.New(name, size)
	if err != nil {
		return IterRate{}, err
	}
	res := IterRate{Benchmark: name, Size: size}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var total int64
	for run := uint64(0); total < minIters; run++ {
		if err := ctx.Err(); err != nil {
			return IterRate{}, err
		}
		opts := core.TunedOptions(p)
		opts.Seed = seed + run
		remaining := minIters - total
		opts.Monitor = func(iter int64, cost int, cfg []int) core.Directive {
			if iter >= remaining {
				return core.Directive{Stop: true}
			}
			return core.Directive{}
		}
		r, err := core.Solve(ctx, p, opts)
		if err != nil {
			return IterRate{}, err
		}
		total += r.Iterations
		res.Solves++
		if r.Iterations == 0 {
			// Degenerate instance (solved at size < 2): avoid spinning.
			break
		}
	}
	res.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	res.Iterations = total
	if res.Seconds > 0 {
		res.ItersPerSec = float64(total) / res.Seconds
	}
	allocs := float64(ms1.Mallocs - ms0.Mallocs)
	if res.Solves > 0 {
		res.AllocsPerSolve = allocs / float64(res.Solves)
	}
	if total > 0 {
		res.AllocsPerIter = allocs / float64(total)
	}
	return res, nil
}

// CollectIterRates measures every registered benchmark at its default
// size and assembles the committed report.
func CollectIterRates(ctx context.Context, seed uint64, minIters int64) (*IterRateReport, error) {
	report := &IterRateReport{
		Note:       fmt.Sprintf("go run ./cmd/experiments -bench-json BENCH_iter_rate.json -bench-iters %d", minIters),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    make(map[string]IterRate),
	}
	sizes := IterRateSizes()
	for _, name := range problems.Names() {
		r, err := MeasureIterRate(ctx, name, sizes[name], seed, minIters)
		if err != nil {
			return nil, fmt.Errorf("bench: iteration rate of %s: %w", name, err)
		}
		report.Results[name] = r
	}
	return report, nil
}

// WriteJSON writes the report to path, indentated and newline-terminated
// so it diffs cleanly when committed.
func (r *IterRateReport) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadIterRateReport loads a report written by WriteJSON.
func ReadIterRateReport(path string) (*IterRateReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r IterRateReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// sortedBenchmarks returns the report's benchmark names, sorted.
func (r *IterRateReport) sortedBenchmarks() []string {
	names := make([]string, 0, len(r.Results))
	for n := range r.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RenderTable writes the report as an aligned text table.
func (r *IterRateReport) RenderTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-16s %8s %14s %14s %8s %13s\n", "benchmark", "size", "iterations", "iters/sec", "solves", "allocs/solve"); err != nil {
		return err
	}
	for _, name := range r.sortedBenchmarks() {
		e := r.Results[name]
		if _, err := fmt.Fprintf(w, "%-16s %8d %14d %14.0f %8d %13.1f\n",
			e.Benchmark, e.Size, e.Iterations, e.ItersPerSec, e.Solves, e.AllocsPerSolve); err != nil {
			return err
		}
	}
	return nil
}

// RenderMarkdown writes the report as the GitHub-flavoured markdown
// table embedded in the README's performance section.
func (r *IterRateReport) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "| Benchmark | Size | Iterations/sec | Solve calls | Allocs/solve |\n|---|---:|---:|---:|---:|\n"); err != nil {
		return err
	}
	for _, name := range r.sortedBenchmarks() {
		e := r.Results[name]
		if _, err := fmt.Fprintf(w, "| %s | %d | %.0f | %d | %.1f |\n",
			e.Benchmark, e.Size, e.ItersPerSec, e.Solves, e.AllocsPerSolve); err != nil {
			return err
		}
	}
	return nil
}

// CompareIterRates checks a fresh measurement against a committed
// baseline and returns one message per regression: a benchmark whose
// iteration rate dropped by more than threshold (e.g. 0.25 = fail below
// 75% of baseline), or a baseline benchmark that was not measured at
// all. An empty slice means the run is within budget. The comparison is
// absolute, so it is only meaningful between runs on the same machine
// class; for cross-machine gating use CompareIterRatesRelative.
func CompareIterRates(fresh, baseline *IterRateReport, threshold float64) []string {
	var regressions []string
	for _, name := range baseline.sortedBenchmarks() {
		base := baseline.Results[name]
		got, ok := fresh.Results[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline but not measured", name))
			continue
		}
		floor := base.ItersPerSec * (1 - threshold)
		if got.ItersPerSec < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f iters/sec is below the regression floor %.0f (baseline %.0f, threshold -%.0f%%)",
					name, got.ItersPerSec, floor, base.ItersPerSec, threshold*100))
		}
	}
	return regressions
}

// CompareIterRatesRelative checks a fresh measurement against a
// baseline with machine speed factored out: each benchmark's
// fresh/baseline rate ratio is normalized by the median ratio across
// all benchmarks, so a run on a uniformly slower (or faster) machine
// compares clean and only benchmarks that regressed *relative to the
// rest of the suite* — the signature of a structural hot-path
// regression — trip the threshold. The returned median is the measured
// machine-speed factor (1.0 = same speed as the baseline box); a
// uniform engine-wide slowdown shows up there, not in the regression
// list, so gates should surface it to humans. Missing benchmarks are
// regressions as in CompareIterRates.
func CompareIterRatesRelative(fresh, baseline *IterRateReport, threshold float64) (regressions []string, median float64) {
	ratios := make([]float64, 0, len(baseline.Results))
	for _, name := range baseline.sortedBenchmarks() {
		base := baseline.Results[name]
		if got, ok := fresh.Results[name]; ok && base.ItersPerSec > 0 {
			ratios = append(ratios, got.ItersPerSec/base.ItersPerSec)
		}
	}
	if len(ratios) == 0 {
		return []string{"no overlapping benchmarks between fresh measurement and baseline"}, 0
	}
	sort.Float64s(ratios)
	median = ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	for _, name := range baseline.sortedBenchmarks() {
		base := baseline.Results[name]
		got, ok := fresh.Results[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline but not measured", name))
			continue
		}
		if base.ItersPerSec <= 0 {
			continue
		}
		ratio := got.ItersPerSec / base.ItersPerSec
		if ratio < median*(1-threshold) {
			regressions = append(regressions,
				fmt.Sprintf("%s: rate ratio %.2f vs baseline is below %.0f%% of the suite median %.2f (%.0f vs %.0f iters/sec)",
					name, ratio, (1-threshold)*100, median, got.ItersPerSec, base.ItersPerSec))
		}
	}
	return regressions, median
}
