package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"repro/internal/rng"
	"repro/internal/stats"
)

// This file is the prediction-accuracy surface behind `experiments
// predict-accuracy FILE` and the committed BENCH_predicted_speedup.json: for
// each benchmark it fits the sequential runtime distribution
// (stats.FitBest), predicts expected speedup at each walker count with
// a bootstrap confidence band, then reads real multi-walk jobs at those
// counts off held-out rows and records the measured speedup beside it.
// The committed artifact is the repo's standing answer to "how far can
// the auto-sizer be trusted?" — a future fit or predictor regression
// shows up as measured speedups drifting out of the bands.

// PredictPoint is one walker count's predicted-vs-measured comparison.
type PredictPoint struct {
	// Walkers is k.
	Walkers int `json:"walkers"`
	// Predicted is the fitted model's expected speedup at k, with
	// [Lo, Hi] the bootstrap confidence band (see PredictConfidence).
	Predicted float64 `json:"predicted"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	// Measured is the observed speedup: sequential mean iterations over
	// the mean winner iterations of the measured multi-walk runs.
	Measured float64 `json:"measured"`
	// MeasureSE is the estimated relative standard error of Measured —
	// sequential-mean noise (observed CV over sqrt n) plus winner-mean
	// noise (conservatively one relative sd over sqrt reps), combined in
	// quadrature. The bootstrap band covers only model-fit uncertainty;
	// Measured is an independent finite-sample estimate, so the coverage
	// check must allow for its noise too.
	MeasureSE float64 `json:"measure_se"`
	// Within reports Lo - m <= Measured <= Hi + m, where the margin
	// m = 2*MeasureSE*Predicted is the measurement-noise allowance.
	Within bool `json:"within"`
}

// PredictEntry is one benchmark's prediction-accuracy record.
type PredictEntry struct {
	Benchmark string `json:"benchmark"`
	Size      int    `json:"size"`
	// Family is the selected runtime-model family, Samples the
	// sequential sample size it was fitted on, KS its goodness of fit.
	Family  string         `json:"family"`
	Samples int            `json:"samples"`
	KS      float64        `json:"ks"`
	Points  []PredictPoint `json:"points"`
	// WithinCount summarizes Points: at how many walker counts the
	// measured speedup fell inside the predicted band.
	WithinCount int `json:"within_count"`
}

// PredictReport is the JSON document committed as
// BENCH_predicted_speedup.json.
type PredictReport struct {
	Note      string `json:"note"`
	GoVersion string `json:"go_version"`
	Scale     string `json:"scale"`
	// Reps is the number of held-out rows, each one job at every k, per
	// benchmark; BootstrapIters/Confidence parameterize the bands.
	Reps           int            `json:"reps"`
	BootstrapIters int            `json:"bootstrap_iters"`
	Confidence     float64        `json:"confidence"`
	Problems       []PredictEntry `json:"problems"`
}

// Prediction-report defaults: the walker counts of the committed
// artifact and the bootstrap parameters of its bands.
var PredictCoreCounts = []int{1, 2, 4, 8}

const (
	// PredictBootstrapIters resamples per band; PredictConfidence is
	// the band's nominal coverage of the *model parameter* uncertainty
	// (measured speedups carry their own sampling noise on top, so
	// bands are necessarily approximate at finite reps).
	PredictBootstrapIters = 400
	PredictConfidence     = 0.98
)

// CollectPredictReport builds the prediction-accuracy report for the
// named benchmarks of the scale's paper workloads: fit on a fresh
// sequential collection, predict at each k in ks, then measure each k
// on the same reps held-out rows.
func CollectPredictReport(ctx context.Context, scale Scale, names []string, ks []int, reps int, seed uint64) (*PredictReport, error) {
	if reps < 2 {
		return nil, fmt.Errorf("bench: predict report needs reps >= 2, got %d", reps)
	}
	workloads := PaperWorkloads(scale)
	report := &PredictReport{
		Note: fmt.Sprintf("go run ./cmd/experiments predict-accuracy -scale %s -reps %d -seed %d BENCH_predicted_speedup.json",
			scale, reps, seed),
		GoVersion:      runtime.Version(),
		Scale:          scale.String(),
		Reps:           reps,
		BootstrapIters: PredictBootstrapIters,
		Confidence:     PredictConfidence,
	}
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			return nil, fmt.Errorf("bench: %q is not a paper workload", name)
		}
		entry, err := collectPredictEntry(ctx, w, ks, reps, seed)
		if err != nil {
			return nil, err
		}
		report.Problems = append(report.Problems, *entry)
	}
	return report, nil
}

// collectPredictEntry measures one benchmark: sequential fit, per-k
// prediction with bands, per-k measured speedup. Every k is measured on
// the same reps held-out rows.
func collectPredictEntry(ctx context.Context, w Workload, ks []int, reps int, seed uint64) (*PredictEntry, error) {
	d, err := Collect(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	winners, _, err := d.heldOut(ctx, reps, ks)
	if err != nil {
		return nil, fmt.Errorf("bench: measuring %s: %w", w, err)
	}
	fit := stats.FitBest(d.Iters)
	entry := &PredictEntry{
		Benchmark: w.Benchmark,
		Size:      w.Size,
		Family:    string(fit.Family),
		Samples:   d.Iters.N(),
		KS:        fit.KS,
	}
	seqMean := d.Iters.Mean()
	for i, k := range ks {
		pred, err := stats.PredictSpeedup(d.Iters, k, PredictBootstrapIters, PredictConfidence, rng.New(seed^uint64(k)*0x9e3779b97f4a7c15))
		if err != nil {
			return nil, fmt.Errorf("bench: predicting %s at k=%d: %w", w, k, err)
		}
		pt := PredictPoint{Walkers: k, Predicted: pred.Speedup, Lo: pred.Lo, Hi: pred.Hi}
		if k == 1 {
			// Speedup at one walker is 1 by definition on both sides; a
			// measured run would only re-estimate the sequential mean.
			pt.Measured = 1
		} else {
			if winners[i] <= 0 {
				return nil, fmt.Errorf("bench: degenerate winner mean for %s at k=%d", w, k)
			}
			pt.Measured = seqMean / winners[i]
			// Delta-method relative SE of the measured ratio: the
			// numerator's noise from the sequential sample's own spread,
			// the denominator's conservatively taken as one relative
			// standard deviation (exponential-like winner runtimes have
			// CV near 1) shrunk by the measurement reps.
			seqRelSE := d.Iters.CV() / math.Sqrt(float64(d.Iters.N()))
			pt.MeasureSE = math.Sqrt(seqRelSE*seqRelSE + 1/float64(reps))
		}
		margin := 2 * pt.MeasureSE * pt.Predicted
		pt.Within = pt.Lo-margin <= pt.Measured && pt.Measured <= pt.Hi+margin
		if pt.Within {
			entry.WithinCount++
		}
		entry.Points = append(entry.Points, pt)
	}
	return entry, nil
}

// WriteJSON writes the report indented and newline-terminated so it
// diffs cleanly when committed.
func (r *PredictReport) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadPredictReport loads a report written by WriteJSON.
func ReadPredictReport(path string) (*PredictReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PredictReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// RenderTable writes the report as an aligned text table.
func (r *PredictReport) RenderTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-16s %6s %12s %4s %10s %20s %10s %7s\n",
		"benchmark", "size", "family", "k", "predicted", "band", "measured", "within"); err != nil {
		return err
	}
	for _, e := range r.Problems {
		for _, pt := range e.Points {
			band := fmt.Sprintf("[%6.2f, %6.2f]", pt.Lo, pt.Hi)
			if _, err := fmt.Fprintf(w, "%-16s %6d %12s %4d %10.2f %20s %10.2f %7v\n",
				e.Benchmark, e.Size, e.Family, pt.Walkers, pt.Predicted, band, pt.Measured, pt.Within); err != nil {
				return err
			}
		}
	}
	return nil
}
