// Command experiments regenerates the paper's evaluation artifacts:
// every figure and table of "Performance Analysis of Parallel
// Constraint-Based Local Search" (PPoPP 2012), plus the extended
// diagnostics and ablations indexed in DESIGN.md §4, and the
// measurements behind the committed BENCH_*.json files.
//
// Usage:
//
//	experiments [-exp IDS] [-scale S] [-seed N] [-out DIR]
//	experiments SUBCOMMAND [flags] [FILE]
//
// With no subcommand it runs the figure suite. -exp takes a
// comma-separated list of fig1, fig2, fig3, summary, times, distrib,
// validate, ablation-comm, extended, ablation-knobs or all. validate
// reads k-walker jobs off held-out 8-walker RunVirtual rows; fig1 and
// fig2 print times' HA8000 and Suno curves, each simulated once:
//
//	experiments -exp all                  # everything, laptop scale
//	experiments -exp fig1,fig3 -scale tiny
//	experiments -exp summary -out results/
//
// Each subcommand measures or reads one thing, and takes only its own
// flags (experiments SUBCOMMAND -h lists them):
//
//	experiments distrib -problem costas -size 13 -runs 600
//	experiments iter-rate -iters 300000 -md BENCH_iter_rate.json
//	experiments iter-rate -iters 200000 -compare BENCH_iter_rate.json fresh_bench.json
//	experiments tail-latency BENCH_tail_latency.json
//	experiments calibrate -problems costas -scale tiny calibration.json
//	experiments predict calibration.json
//	experiments whatif -platform grid5000-suno calibration.json
//	experiments predict-accuracy -scale tiny -reps 60 BENCH_predicted_speedup.json
//	experiments ftdc-decode serve.ftdc > serve.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args into one subcommand and
// runs it. Results go to stdout; flag usage and warnings to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cmd, err := parse(args, stderr)
	if err != nil {
		return err
	}
	return cmd(ctx, stdout, stderr)
}

// action runs a parsed subcommand on its FILE argument.
type action func(ctx context.Context, file string, stdout, stderr io.Writer) error

// subcommand is one mode of the command: define registers its flags on
// a fresh FlagSet and returns what runs it. file names its one
// positional argument, empty when it takes none.
type subcommand struct {
	name, file, summary string
	define              func(fs *flag.FlagSet) action
}

// subcommands lists every mode. The unnamed first entry, the figure
// suite, runs when the arguments do not start with a name.
var subcommands = []subcommand{
	{"", "", "the paper's figures and tables", defineSuite},
	{"distrib", "", "one benchmark's sequential runtime distribution and the speedups it predicts", defineDistrib},
	{"iter-rate", "FILE", "measure sequential iteration rates into FILE (BENCH_iter_rate.json)", defineIterRate},
	{"tail-latency", "FILE", "measure fleet tail latency with and without speculation into FILE (BENCH_tail_latency.json)", defineTailLatency},
	{"calibrate", "FILE", "seed or extend the calibration store FILE from sequential bench runs", defineCalibrate},
	{"predict", "FILE", "print predicted speedup curves for every population in the calibration store FILE", definePredict},
	{"whatif", "FILE", "simulate every population in the calibration store FILE on a platform model", defineWhatIf},
	{"predict-accuracy", "FILE", "measure predicted vs actual multi-walk speedup into FILE (BENCH_predicted_speedup.json)", definePredictAccuracy},
	{"ftdc-decode", "FILE", "decode the telemetry capture FILE (serve or worker -telemetry) to CSV on stdout", defineFTDCDecode},
}

// defaultSeed is the master seed: the default of every -seed flag, and
// the seed of the subcommands that have none.
const defaultSeed = 2012

// parse selects the subcommand args name and parses the rest against
// its flags alone. FILE may stand before, between or after the flags;
// anything else left over is an error.
func parse(args []string, stderr io.Writer) (func(ctx context.Context, stdout, stderr io.Writer) error, error) {
	sub := subcommands[0]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		i := slices.IndexFunc(subcommands[1:], func(s subcommand) bool { return s.name == args[0] })
		if i < 0 {
			return nil, fmt.Errorf("unknown subcommand %q (experiments -h lists them)", args[0])
		}
		sub, args = subcommands[i+1], args[1:]
	}
	fs := flag.NewFlagSet(strings.TrimSpace("experiments "+sub.name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(fs, sub) }
	act := sub.define(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var file string
	if sub.file != "" {
		if fs.NArg() == 0 {
			fs.Usage()
			return nil, fmt.Errorf("missing %s argument", sub.file)
		}
		file = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return nil, err
		}
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return func(ctx context.Context, stdout, stderr io.Writer) error {
		return act(ctx, file, stdout, stderr)
	}, nil
}

// usage prints a subcommand's synopsis and flags; the suite's also
// lists the subcommands.
func usage(fs *flag.FlagSet, sub subcommand) {
	w := fs.Output()
	if sub.name == "" {
		fmt.Fprintln(w, "usage: experiments [flags]    (the figure suite)")
		fmt.Fprintln(w, "       experiments SUBCOMMAND [flags] [FILE]")
		fmt.Fprintln(w, "subcommands:")
		for _, s := range subcommands[1:] {
			fmt.Fprintf(w, "  %-22s %s\n", strings.TrimSpace(s.name+" "+s.file), s.summary)
		}
		fmt.Fprintln(w, "suite flags:")
	} else {
		fmt.Fprintf(w, "usage: experiments %s [flags] %s\n%s\n", sub.name, sub.file, sub.summary)
	}
	fs.PrintDefaults()
}

// scaleFlag defines -scale on fs, checked as it is parsed.
func scaleFlag(fs *flag.FlagSet) *bench.Scale {
	scale := bench.ScaleSmall
	fs.Func("scale", "instance `scale`: tiny|small|paper (default small)", func(v string) (err error) {
		scale, err = bench.ParseScale(v)
		return err
	})
	return &scale
}

// experimentIDs lists the suite's experiments in run order. The first
// seven read the collected runtime distributions.
var experimentIDs = []string{"fig1", "fig2", "fig3", "summary", "times", "distrib", "validate", "ablation-comm", "extended", "ablation-knobs"}

func defineSuite(fs *flag.FlagSet) action {
	want := map[string]bool{"all": true}
	fs.Func("exp", "comma-separated experiment `ids`: "+strings.Join(experimentIDs, ",")+",all (default all)", func(v string) error {
		want = map[string]bool{}
		for _, id := range strings.Split(v, ",") {
			id = strings.TrimSpace(id)
			if id != "all" && !slices.Contains(experimentIDs, id) {
				return fmt.Errorf("unknown experiment %q", id)
			}
			want[id] = true
		}
		return nil
	})
	scale := scaleFlag(fs)
	seed := fs.Uint64("seed", defaultSeed, "master seed")
	outDir := fs.String("out", "", "directory for .txt/.csv artifacts (optional)")
	return func(ctx context.Context, _ string, stdout, _ io.Writer) error {
		return runSuite(ctx, stdout, func(id string) bool { return want["all"] || want[id] }, *scale, *seed, *outDir)
	}
}

// runSuite builds the selected experiments in experimentIDs order,
// renders them to stdout and, with outDir, writes each as .txt and .csv.
func runSuite(ctx context.Context, stdout io.Writer, selected func(id string) bool, scale bench.Scale, seed uint64, outDir string) error {
	var suite *bench.Suite
	if slices.ContainsFunc(experimentIDs[:7], selected) {
		fmt.Fprintf(stdout, "collecting runtime distributions (scale=%s)...\n", scale)
		start := time.Now()
		var err error
		if suite, err = bench.NewSuite(ctx, scale, seed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "collection done in %v\n\n", time.Since(start).Round(time.Second))
	}

	var tables []*bench.Table
	charts := map[string]map[string][]float64{}
	for _, id := range experimentIDs {
		if !selected(id) {
			continue
		}
		var t *bench.Table
		var err error
		switch id {
		case "fig1":
			t, charts[id], err = suite.Fig1()
		case "fig2":
			t, charts[id], err = suite.Fig2()
		case "fig3":
			t, err = suite.Fig3()
		case "summary":
			t, err = suite.SummaryTable()
		case "times":
			t, err = suite.TimesTable()
		case "distrib":
			t, err = suite.DistributionTable()
		case "validate":
			t, err = suite.ValidationTable(ctx, []int{2, 4, 8}, 10)
		case "ablation-comm":
			t, err = bench.AblationComm(ctx, bench.PaperWorkloads(scale)["costas"], []int{2, 4, 8}, 10, seed)
		case "extended":
			t, err = bench.ExtendedTable(ctx, seed)
		case "ablation-knobs":
			t, err = bench.AblationKnobs(ctx, bench.PaperWorkloads(scale)["magic-square"], 20, seed)
		}
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}

	for _, t := range tables {
		if err := t.Render(stdout); err != nil {
			return err
		}
		if series, ok := charts[t.ID]; ok {
			if err := bench.AsciiChart(stdout, t.Title, bench.CoreCounts, series, 14); err != nil {
				return err
			}
		}
	}

	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		if err := writeFile(filepath.Join(outDir, t.ID+".txt"), t.Render); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(outDir, t.ID+".csv"), t.CSV); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "artifacts written to %s\n", outDir)
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// iterRateThreshold is the iter-rate -compare gate: a benchmark fails
// when its rate ratio to the baseline falls more than this fraction
// below the suite-wide median ratio.
const iterRateThreshold = 0.25

// defineIterRate is the iteration-rate subcommand: measure the
// sequential hot-loop iteration rate of every benchmark, write the JSON
// report, and optionally gate against a committed baseline (the CI
// bench-smoke job).
func defineIterRate(fs *flag.FlagSet) action {
	minIters := fs.Int64("iters", 300_000, "minimum engine iterations timed per benchmark")
	comparePath := fs.String("compare", "", "baseline report to gate against (BENCH_iter_rate.json): a benchmark whose rate ratio to it falls more than 25% below the suite-wide median ratio fails the run, so the machine's speed cancels")
	markdown := fs.Bool("md", false, "also print the results as the README's markdown table")
	return func(ctx context.Context, file string, stdout, stderr io.Writer) error {
		fmt.Fprintf(stdout, "measuring iteration rates (>= %d iterations per benchmark)...\n", *minIters)
		report, err := bench.CollectIterRates(ctx, defaultSeed, *minIters)
		if err != nil {
			return err
		}
		if err := report.RenderTable(stdout); err != nil {
			return err
		}
		if *markdown {
			fmt.Fprintln(stdout)
			if err := report.RenderMarkdown(stdout); err != nil {
				return err
			}
		}
		if err := report.WriteJSON(file); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "iteration-rate report written to %s\n", file)
		if *comparePath == "" {
			return nil
		}
		baseline, err := bench.ReadIterRateReport(*comparePath)
		if err != nil {
			return err
		}
		regressions, median := bench.CompareIterRatesRelative(report, baseline, iterRateThreshold)
		fmt.Fprintf(stdout, "machine-speed factor vs %s baseline: %.2fx\n", *comparePath, median)
		if median < 1-iterRateThreshold {
			// A uniform suite-wide slowdown cancels out of the gate by
			// construction; surface it loudly so a real engine-wide
			// regression is not mistaken for a slow runner.
			fmt.Fprintf(stderr, "WARNING: whole suite runs at %.2fx of baseline — slower machine or uniform engine regression\n", median)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(stderr, "REGRESSION:", r)
			}
			return fmt.Errorf("%d iteration-rate regression(s) vs %s", len(regressions), *comparePath)
		}
		fmt.Fprintf(stdout, "within %.0f%% of the %s baseline\n", iterRateThreshold*100, *comparePath)
		return nil
	}
}

// defineTailLatency is the tail-latency subcommand: measure the
// distributed job-latency distribution under an injected straggler
// with and without speculative re-dispatch, and write
// BENCH_tail_latency.json. The job template is fixed (4 walkers of
// costas 18, a 5k-iteration budget — small enough that the injected
// delay, not engine work, dominates the baseline tail) so committed
// reports stay comparable.
func defineTailLatency(fs *flag.FlagSet) action {
	reps := fs.Int("reps", 15, "jobs timed per arm")
	straggle := fs.Duration("straggle", 1200*time.Millisecond, "injected shard-dispatch delay on the straggler worker")
	return func(ctx context.Context, file string, stdout, _ io.Writer) error {
		const (
			walkers    = 4
			iterBudget = 5_000
		)
		w := bench.Workload{Benchmark: "costas", Size: 18}
		fmt.Fprintf(stdout, "measuring straggler tail latency (%d reps per arm, %v injected delay)...\n", *reps, *straggle)
		report, err := bench.CollectSpeculationDist(ctx, w, walkers, *reps, defaultSeed, iterBudget, *straggle)
		if err != nil {
			return err
		}
		for _, arm := range []*bench.TailLatency{&report.Baseline, &report.Speculated} {
			name := "speculate-off"
			if arm.Speculate {
				name = "speculate-on "
			}
			fmt.Fprintf(stdout, "%s p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms (backups launched=%d won=%d)\n",
				name, arm.P50MS, arm.P95MS, arm.P99MS, arm.MaxMS,
				arm.SpeculationsLaunched, arm.SpeculationsWon)
		}
		if err := report.WriteJSON(file); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tail-latency report written to %s\n", file)
		return nil
	}
}
