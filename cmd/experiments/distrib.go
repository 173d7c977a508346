package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/problems"
	"repro/internal/stats"
)

// defineDistrib is the distrib subcommand: the paper's method on one
// benchmark. It collects the sequential runtime distribution, renders
// its EXP-D1 diagnostics (the suite's distrib table, one row), a
// histogram, the speedups the distribution predicts at the paper's core
// counts, and the simulated HA8000 curve w.r.t. 32 cores (Fig. 3's
// view).
func defineDistrib(fs *flag.FlagSet) action {
	problem := fs.String("problem", "costas", "benchmark name")
	size := fs.Int("size", 0, "instance size (0 = the benchmark's default)")
	runs := fs.Int("runs", 300, "number of sequential solves")
	seed := fs.Uint64("seed", defaultSeed, "master seed")
	return func(ctx context.Context, _ string, stdout, _ io.Writer) error {
		w := bench.Workload{Benchmark: *problem, Size: *size, Runs: *runs}
		if w.Size <= 0 {
			info, err := problems.Describe(w.Benchmark)
			if err != nil {
				return err
			}
			w.Size = info.DefaultSize
		}
		fmt.Fprintf(stdout, "collecting %d sequential solves of %s...\n", w.Runs, w)
		start := time.Now()
		d, err := bench.Collect(ctx, w, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "done in %v: wall seconds a solve mean=%.4f median=%.4f, %.0f iters/s on this machine\n\n",
			time.Since(start).Round(time.Millisecond), d.Seconds.Mean(), d.Seconds.Median(), d.ItersPerSecond)

		if err := bench.Diagnostics(d).Render(stdout); err != nil {
			return err
		}
		printHistogram(stdout, d.Iters, 12, 48)

		speedups := &bench.Table{
			ID:     "speedup",
			Title:  "predicted multi-walk speedups",
			Header: []string{"cores", "orderstat", "model", "ideal"},
			Notes: []string{
				"orderstat: E[T]/E[min_k] from the sample, exact for k within ~n/10 of its size",
				"model: the shifted-exponential fit, which extrapolates beyond the sample",
			},
		}
		for _, k := range bench.CoreCounts {
			sp, err := d.Iters.Speedup(k)
			if err != nil {
				return err
			}
			speedups.Rows = append(speedups.Rows, []string{
				fmt.Sprintf("%d", k), fmt.Sprintf("%.1f", sp), fmt.Sprintf("%.1f", d.Model.Speedup(k)), fmt.Sprintf("%d", k),
			})
		}
		if err := speedups.Render(stdout); err != nil {
			return err
		}

		curve, err := bench.HA8000Curve(d, *seed)
		if err != nil {
			return err
		}
		return curve.Render(stdout)
	}
}

// printHistogram renders an ASCII histogram of the sample.
func printHistogram(w io.Writer, s *stats.Sample, bins, width int) {
	xs, _ := s.ECDF()
	lo, hi := s.Min(), s.Max()
	if hi == lo {
		fmt.Fprintln(w, "histogram: all observations identical")
		fmt.Fprintln(w)
		return
	}
	counts := make([]int, bins)
	maxC := 0
	for _, x := range xs {
		b := min(int(float64(bins)*(x-lo)/(hi-lo)), bins-1)
		counts[b]++
		maxC = max(maxC, counts[b])
	}
	fmt.Fprintln(w, "histogram (iterations to solution):")
	for b, c := range counts {
		fmt.Fprintf(w, "  %9.0f |%s %d\n", lo+(hi-lo)*float64(b)/float64(bins), strings.Repeat("#", c*width/maxC), c)
	}
	fmt.Fprintln(w)
}
