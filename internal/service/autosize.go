package service

// Auto-sizing: a request may carry AutoSize instead of a fixed Walkers
// count, and admission picks the walker count from the calibrated
// runtime distribution (internal/calibrate + stats.FitBest). This is
// the paper's speedup analysis run in reverse — instead of measuring
// speedup at a chosen k, the predicted speedup curve chooses k:
//
//   - With a latency target, the chosen k is the smallest whose
//     predicted P95 job latency (the 0.95-quantile of min-of-k,
//     converted through the calibrated iteration rate) meets it. A
//     target below what the model says any admissible k can reach is a
//     typed ErrUnsatisfiable — the shifted-exponential family has a
//     hard floor (Shift) that no parallelism gets under.
//   - Without a target, the chosen k is where the saturation curve's
//     marginal gain drops below MinGain: every slot past that point
//     buys less than MinGain relative speedup and is released to other
//     tenants instead, composing with the weighted-fair ledger (an
//     auto-sized job is charged like any fixed-width job of the same
//     k).
//
// The chosen k is written into Request.Walkers, so it flows through
// normal admission, tenant quotas and slot accounting, and is echoed
// back in every job snapshot for clients to observe.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/calibrate"
	"repro/internal/multiwalk"
)

// AutoSizeSpec asks admission to choose the walker count from
// calibration instead of taking a fixed Walkers value.
type AutoSizeSpec struct {
	// TargetP95 is an optional latency target as a Go duration string
	// ("500ms", "2s"): the chosen k is the smallest whose predicted P95
	// job latency meets it. Empty selects marginal-gain sizing.
	TargetP95 string `json:"target_p95,omitempty"`
	// MaxWalkers caps the chosen count; 0 selects the pool size.
	MaxWalkers int `json:"max_walkers,omitempty"`
	// MinGain is the marginal-gain cutoff for targetless sizing: growth
	// stops at the last k whose relative speedup gain over k-1 is at
	// least MinGain. 0 selects 0.05.
	MinGain float64 `json:"min_gain,omitempty"`
}

// Typed auto-size errors. Both surface through the HTTP layer:
// ErrNoCalibration as 409 (retry after calibrating), ErrUnsatisfiable
// as 422 (the request is well-formed but no walker count satisfies
// it).
var (
	// ErrNoCalibration reports an AutoSize request whose (problem, size,
	// params) population has no (or too little) calibration
	// data, or a server running without a calibration store.
	ErrNoCalibration = errors.New("service: no calibration for request")
	// ErrUnsatisfiable reports a latency target below the predicted P95
	// at every admissible walker count — the runtime distribution's
	// floor makes the target unreachable by parallelism alone.
	ErrUnsatisfiable = errors.New("service: latency target unsatisfiable at any walker count")
)

// defaultMinGain is the marginal-speedup cutoff when the spec leaves
// MinGain zero: stop adding walkers once the next one buys < 5%.
const defaultMinGain = 0.05

// autoSizeQuantile is the latency quantile targets are solved against.
const autoSizeQuantile = 0.95

// calibrationKey maps a normalized request onto its calibration
// population. It must match what the live feed records (recordOutcome)
// so predictions and telemetry describe the same population; Size is
// the post-default-resolution value. Every job runs Adaptive Search, so
// the algorithm is not part of the key.
func calibrationKey(req *Request) calibrate.Key {
	return calibrate.Key{
		Problem: req.Problem,
		Size:    req.Size,
		Params:  calibrate.CanonicalParams(req.Params),
	}
}

// autoSize resolves req.AutoSize into a concrete req.Walkers. Called
// from normalizeRequest after problem/size resolution and engine-option
// validation (the calibration key needs resolved values, and a bad
// budget must be a 400, not a misleading no-calibration 409) and
// before walker validation (the chosen count then passes through the
// same bounds checks as an explicit one). Counts successes and typed
// rejections for /metrics.
func (s *Scheduler) autoSize(req *Request) error {
	spec := req.AutoSize
	if req.Walkers != 0 {
		return fmt.Errorf("%w: autosize and walkers are mutually exclusive", ErrBadRequest)
	}
	if req.Exchange != nil && req.Exchange.Enabled {
		// Calibration populations are independent runs; a dependent
		// run's distribution is not the sequential one the model was
		// fitted to.
		return fmt.Errorf("%w: autosize requires an independent job", ErrBadRequest)
	}
	minGain := spec.MinGain
	if minGain == 0 {
		minGain = defaultMinGain
	}
	if minGain < 0 || minGain >= 1 {
		return fmt.Errorf("%w: autosize min_gain = %v outside (0, 1)", ErrBadRequest, spec.MinGain)
	}
	var target time.Duration
	if spec.TargetP95 != "" {
		d, err := time.ParseDuration(spec.TargetP95)
		if err != nil || d <= 0 {
			return fmt.Errorf("%w: autosize target_p95 %q is not a positive duration", ErrBadRequest, spec.TargetP95)
		}
		target = d
	}
	kmax := s.curSlots()
	if spec.MaxWalkers < 0 {
		return fmt.Errorf("%w: autosize max_walkers = %d < 0", ErrBadRequest, spec.MaxWalkers)
	}
	if spec.MaxWalkers > 0 && spec.MaxWalkers < kmax {
		kmax = spec.MaxWalkers
	}
	if kmax < 1 {
		kmax = 1
	}

	if s.cfg.Calibration == nil {
		s.mAutoRejected.Add(1)
		return fmt.Errorf("%w: server runs without a calibration store", ErrNoCalibration)
	}
	key := calibrationKey(req)
	res, err := s.cfg.Calibration.Resolve(key)
	if err != nil {
		s.mAutoRejected.Add(1)
		if errors.Is(err, calibrate.ErrInsufficient) {
			return fmt.Errorf("%w: %v", ErrNoCalibration, err)
		}
		return err
	}

	var k int
	if target > 0 {
		if res.ItersPerSec <= 0 {
			s.mAutoRejected.Add(1)
			return fmt.Errorf("%w: %s has no calibrated iteration rate to convert %v into effort", ErrNoCalibration, key, target)
		}
		targetIters := target.Seconds() * res.ItersPerSec
		for k = 1; k <= kmax; k++ {
			if res.Fit.MinQuantile(k, autoSizeQuantile) <= targetIters {
				break
			}
		}
		if k > kmax {
			s.mAutoRejected.Add(1)
			floor := time.Duration(res.Fit.RuntimeFloor() / res.ItersPerSec * float64(time.Second))
			best := time.Duration(res.Fit.MinQuantile(kmax, autoSizeQuantile) / res.ItersPerSec * float64(time.Second))
			return fmt.Errorf("%w: predicted P95 at %d walkers is %v (runtime floor %v), target %v",
				ErrUnsatisfiable, kmax, best.Round(time.Millisecond), floor.Round(time.Millisecond), target)
		}
	} else {
		// Marginal-gain sizing: climb the saturation curve while each
		// added walker still buys >= minGain relative speedup.
		k = 1
		prev := 1.0 // Speedup(1) by definition
		for k < kmax {
			next := res.Fit.Speedup(k + 1)
			if next < prev*(1+minGain) {
				break
			}
			prev = next
			k++
		}
	}
	req.Walkers = k
	s.mAutoSized.Add(1)
	return nil
}

// recordOutcome feeds a finished job back into the calibration store:
// live telemetry keeps calibration fresh without dedicated bench runs.
// Only solved, independent runs are recorded — a dependent run is not a
// draw of the sequential distribution — and only single-walker runs are
// flagged Sequential (a k-walker winner effort is a min-of-k draw, which
// would bias the fit; it still carries rate information and a measured
// speedup observation). res is the run's result, nil if there was no
// run.
func (s *Scheduler) recordOutcome(j *job, res *multiwalk.Result) {
	if s.cfg.Calibration == nil || res == nil || !res.Solved {
		return
	}
	if j.req.Exchange != nil && j.req.Exchange.Enabled {
		return
	}
	if res.WinnerIterations <= 0 {
		return
	}
	b := calibrate.Batch{
		Source:     "live",
		RecordedAt: time.Now(),
		Sequential: j.opts.Walkers == 1,
		Walkers:    j.opts.Walkers,
		Iters:      []float64{float64(res.WinnerIterations)},
	}
	if sec := res.Elapsed.Seconds(); sec > 0 && res.TotalIterations > 0 {
		// Per-walker rate: total engine iterations over walker-seconds.
		b.ItersPerSec = float64(res.TotalIterations) / sec / float64(j.opts.Walkers)
	}
	// A validation failure here only means the outcome was degenerate
	// (e.g. zero-effort); dropping it is the right response.
	_ = s.cfg.Calibration.Record(calibrationKey(&j.req), b)
}
