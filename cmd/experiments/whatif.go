package main

// The capacity-planning subcommands: calibrate seeds a calibration
// store from bench runs, predict reads expected-speedup curves out of
// it, whatif replays a calibrated workload on an exemplar platform
// model (HA8000, Grid'5000, or the local machine), and
// predict-accuracy produces the committed predicted-vs-measured
// accuracy artifact. Together they wire the internal/cluster simulator
// to the same calibration store the serving layer's AutoSize mode
// reads, so "what would this workload do on N cores?" is answered from
// data the fleet already collected.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/stats"
)

// predictCores is the walker/core grid of the predict and whatif
// tables.
var predictCores = []int{1, 2, 4, 8, 16, 32, 64}

// problemsFlag defines -problems on fs: the paper workloads calibrate
// and predict-accuracy measure.
func problemsFlag(fs *flag.FlagSet) *string {
	return fs.String("problems", "costas,magic-square,all-interval", "comma-separated paper workloads")
}

// splitNames splits a comma-separated list, dropping empty entries.
func splitNames(csv string) []string {
	var names []string
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// defineCalibrate is the calibrate subcommand: collect sequential
// runtime distributions for the named paper workloads and append them
// to the calibration store FILE (created if absent), so serve
// -calibration and the predict/whatif subcommands have populations to
// resolve.
func defineCalibrate(fs *flag.FlagSet) action {
	problemsCSV := problemsFlag(fs)
	scale := scaleFlag(fs)
	seed := fs.Uint64("seed", defaultSeed, "master seed")
	return func(ctx context.Context, path string, stdout, _ io.Writer) error {
		st, err := calibrate.Load(path)
		if err != nil {
			return err
		}
		workloads := bench.PaperWorkloads(*scale)
		for _, name := range splitNames(*problemsCSV) {
			w, ok := workloads[name]
			if !ok {
				return fmt.Errorf("unknown paper workload %q (known: costas, magic-square, all-interval, perfect-square)", name)
			}
			fmt.Fprintf(stdout, "calibrating %s (%d sequential runs)...\n", w, w.Runs)
			d, err := bench.SeedCalibration(ctx, st, w, *seed)
			if err != nil {
				return err
			}
			fit := stats.FitBest(d.Iters)
			fmt.Fprintf(stdout, "  %s: n=%d mean=%.0f iters, %.0f iters/sec, family=%s (KS %.3f)\n",
				w, d.Iters.N(), d.Iters.Mean(), d.ItersPerSecond, fit.Family, fit.KS)
		}
		if err := st.Save(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "calibration store written to %s (%d keys)\n", path, len(st.Keys()))
		return nil
	}
}

// loadCalibrated loads the calibration store at path and its keys,
// refusing an empty one.
func loadCalibrated(path string) (*calibrate.Store, []calibrate.Key, error) {
	st, err := calibrate.Load(path)
	if err != nil {
		return nil, nil, err
	}
	keys := st.Keys()
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("calibration store %s is empty; run experiments calibrate first", path)
	}
	return st, keys, nil
}

// definePredict is the predict subcommand: for every calibrated
// population, print the expected speedup at each walker count with its
// bootstrap band, plus the predicted P95 latency through the calibrated
// rate — the same numbers the service's AutoSize admission solves
// against.
func definePredict(*flag.FlagSet) action {
	return func(_ context.Context, path string, stdout, _ io.Writer) error {
		st, keys, err := loadCalibrated(path)
		if err != nil {
			return err
		}
		for _, key := range keys {
			res, err := st.Resolve(key)
			if err != nil {
				fmt.Fprintf(stdout, "%s: %v\n", key, err)
				continue
			}
			fmt.Fprintf(stdout, "%s: n=%d, family=%s, mean=%.0f iters, %.0f iters/sec\n",
				key, res.Samples, res.Fit.Family, res.Fit.Mean(), res.ItersPerSec)
			fmt.Fprintf(stdout, "  %4s %10s %20s %12s\n", "k", "speedup", "band", "p95")
			for _, k := range predictCores {
				pred, err := stats.PredictSpeedup(res.Sample, k, 200, 0.95, rng.New(defaultSeed))
				if err != nil {
					return err
				}
				p95 := "-"
				if res.ItersPerSec > 0 {
					p95 = fmt.Sprintf("%.1fms", res.Fit.MinQuantile(k, 0.95)/res.ItersPerSec*1000)
				}
				fmt.Fprintf(stdout, "  %4d %10.2f [%8.2f, %8.2f] %12s\n", k, pred.Speedup, pred.Lo, pred.Hi, p95)
			}
		}
		return nil
	}
}

// defineWhatIf is the whatif subcommand: replay every calibrated
// population on a named platform model and print the platform-colored
// speedup curve beside the distribution-only prediction and any
// live-measured speedups the store holds — predicted vs. measured
// capacity planning from one file.
func defineWhatIf(fs *flag.FlagSet) action {
	platform, _ := cluster.Named("local")
	fs.Func("platform", "platform `model`: "+strings.Join(cluster.PlatformNames(), "|")+" (default local)", func(v string) (err error) {
		platform, err = cluster.Named(v)
		return err
	})
	return func(_ context.Context, path string, stdout, _ io.Writer) error {
		st, keys, err := loadCalibrated(path)
		if err != nil {
			return err
		}
		for _, key := range keys {
			res, err := st.Resolve(key)
			if err != nil {
				fmt.Fprintf(stdout, "%s: %v\n", key, err)
				continue
			}
			sim, err := cluster.NewCalibratedSim(platform, res.Sample, res.ItersPerSec)
			if err != nil {
				return err
			}
			measured := map[int]calibrate.SpeedupObs{}
			if obs, err := st.ObservedSpeedups(key); err == nil {
				for _, o := range obs {
					measured[o.Walkers] = o
				}
			}
			ks := make([]int, 0, len(predictCores))
			for _, k := range predictCores {
				if k <= platform.Cores() {
					ks = append(ks, k)
				}
			}
			curve, err := sim.SpeedupCurve(ks, 200, defaultSeed)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s on %s (%d cores, %.0f iters/sec/core): seq wall %.2fs\n",
				key, sim.Platform.Name, platform.Cores(), sim.Platform.IterationsPerSecond, curve.SeqWall)
			fmt.Fprintf(stdout, "  %4s %10s %12s %12s\n", "k", "predicted", "simulated", "live")
			for i, pt := range curve.Points {
				live := "-"
				if o, ok := measured[pt.Cores]; ok {
					live = fmt.Sprintf("%.2f (n=%d)", o.Speedup, o.Runs)
				}
				fmt.Fprintf(stdout, "  %4d %10.2f %12.2f %12s\n", ks[i], res.Fit.Speedup(pt.Cores), pt.Speedup, live)
			}
		}
		return nil
	}
}

// definePredictAccuracy is the predict-accuracy subcommand: regenerate
// the committed predicted-vs-measured speedup artifact
// (BENCH_predicted_speedup.json).
func definePredictAccuracy(fs *flag.FlagSet) action {
	problemsCSV := problemsFlag(fs)
	scale := scaleFlag(fs)
	reps := fs.Int("reps", 40, "multi-walk jobs measured per (benchmark, walker count)")
	seed := fs.Uint64("seed", defaultSeed, "master seed")
	return func(ctx context.Context, path string, stdout, _ io.Writer) error {
		names := splitNames(*problemsCSV)
		fmt.Fprintf(stdout, "measuring prediction accuracy for %v at k=%v (%d reps per point, scale=%s)...\n",
			names, bench.PredictCoreCounts, *reps, *scale)
		report, err := bench.CollectPredictReport(ctx, *scale, names, bench.PredictCoreCounts, *reps, *seed)
		if err != nil {
			return err
		}
		if err := report.RenderTable(stdout); err != nil {
			return err
		}
		if err := report.WriteJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "prediction-accuracy report written to %s\n", path)
		for _, e := range report.Problems {
			if e.WithinCount < len(e.Points)-1 {
				fmt.Fprintf(stdout, "NOTE: %s measured speedup left the predicted band at %d of %d walker counts\n",
					e.Benchmark, len(e.Points)-e.WithinCount, len(e.Points))
			}
		}
		return nil
	}
}
