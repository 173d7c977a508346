// Package stats provides the runtime-distribution statistics behind the
// paper's performance analysis.
//
// The key quantity: with k independent walks, the parallel runtime is
// the minimum of k i.i.d. draws from the sequential runtime
// distribution, so the expected speedup on k cores is
//
//	speedup(k) = E[T] / E[min(T_1, ..., T_k)].
//
// This package estimates E[min_k] two ways:
//
//   - nonparametrically, with the exact unbiased order-statistics
//     estimator over an observed sample (ExpectedMin), and
//   - parametrically, by fitting a shifted exponential model
//     (FitShiftedExp), which explains the paper's two regimes: a shift
//     near zero gives ideal linear speedup (the Costas array of Fig. 3),
//     while a positive shift — a floor every walk must pay — saturates
//     the curve (the CSPLib benchmarks of Figs. 1–2).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Sample holds a non-empty collection of non-negative observations
// (runtimes, in iterations or seconds), kept sorted ascending.
type Sample struct {
	xs []float64
}

// New copies xs into a Sample. It rejects empty input and NaN, infinite
// or negative values.
func New(xs []float64) (*Sample, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: empty sample")
	}
	own := make([]float64, len(xs))
	copy(own, xs)
	for _, x := range own {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return nil, fmt.Errorf("stats: invalid observation %v", x)
		}
	}
	sort.Float64s(own)
	return &Sample{xs: own}, nil
}

// FromInts builds a Sample from integer observations (typically
// iteration counts).
func FromInts(xs []int64) (*Sample, error) {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return New(fs)
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.xs) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.xs[0] }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.xs[len(s.xs)-1] }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance (0 for n = 1).
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// CV returns the coefficient of variation (std/mean). An exponential
// distribution has CV = 1; CV well below 1 signals a runtime floor
// (shifted distribution) and hence saturating multi-walk speedup.
// Returns 0 when the mean is 0.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Std() / m
}

// Quantile returns the q-th empirical quantile (0 <= q <= 1) with
// linear interpolation between order statistics.
func (s *Sample) Quantile(q float64) float64 {
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// ECDF returns the empirical CDF as parallel slices: values and
// cumulative probabilities.
func (s *Sample) ECDF() (xs, ps []float64) {
	n := len(s.xs)
	xs = make([]float64, n)
	ps = make([]float64, n)
	copy(xs, s.xs)
	for i := range ps {
		ps[i] = float64(i+1) / float64(n)
	}
	return xs, ps
}

// ExpectedMin returns the exact unbiased estimator of E[min of k
// i.i.d. draws] from the sample:
//
//	Ê[min_k] = Σ_i x_(i) · C(n-i, k-1) / C(n, k)      (i = 1..n, sorted)
//
// i.e. the average of min(S) over all C(n, k) subsets S of size k.
// For k >= n it degenerates to the sample minimum; accuracy requires
// n substantially larger than k (the experiment harness enforces this).
// k must be >= 1.
func (s *Sample) ExpectedMin(k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("stats: ExpectedMin needs k >= 1, got %d", k)
	}
	n := len(s.xs)
	if k >= n {
		return s.xs[0], nil
	}
	// w_1 = C(n-1, k-1)/C(n, k) = k/n;
	// w_{i+1} = w_i * (n-i-k+1)/(n-i).
	w := float64(k) / float64(n)
	sum := 0.0
	for i := 1; i <= n-k+1; i++ {
		sum += w * s.xs[i-1]
		w *= float64(n-i-k+1) / float64(n-i)
	}
	return sum, nil
}

// Speedup returns Mean / Ê[min_k]: the predicted multi-walk speedup on
// k cores. Returns an error for invalid k or a degenerate (all-zero)
// sample.
func (s *Sample) Speedup(k int) (float64, error) {
	em, err := s.ExpectedMin(k)
	if err != nil {
		return 0, err
	}
	if em == 0 {
		return 0, errors.New("stats: zero expected minimum — degenerate sample")
	}
	return s.Mean() / em, nil
}

// MonteCarloMin estimates E[min_k] by Monte Carlo: it draws reps
// random k-element samples — each element picked uniformly from the
// data with replacement, since under the i.i.d. runtime model the
// estimator targets, distinct-index draws would change nothing — and
// averages the per-draw minima. It serves as a cross-check of the
// exact ExpectedMin estimator in tests.
func (s *Sample) MonteCarloMin(k, reps int, r *rng.Rand) (float64, error) {
	if k < 1 || reps < 1 {
		return 0, fmt.Errorf("stats: MonteCarloMin needs k >= 1 and reps >= 1")
	}
	n := len(s.xs)
	total := 0.0
	for rep := 0; rep < reps; rep++ {
		m := math.Inf(1)
		for j := 0; j < k; j++ {
			x := s.xs[r.Intn(n)]
			if x < m {
				m = x
			}
		}
		total += m
	}
	return total / float64(reps), nil
}

// Bootstrap returns a (lo, hi) percentile confidence interval at the
// given confidence level for an arbitrary statistic, by resampling the
// sample with replacement iters times.
func (s *Sample) Bootstrap(stat func(*Sample) float64, iters int, conf float64, r *rng.Rand) (lo, hi float64, err error) {
	if iters < 10 {
		return 0, 0, errors.New("stats: Bootstrap needs iters >= 10")
	}
	if conf <= 0 || conf >= 1 {
		return 0, 0, fmt.Errorf("stats: confidence %v outside (0,1)", conf)
	}
	n := len(s.xs)
	vals := make([]float64, iters)
	buf := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range buf {
			buf[i] = s.xs[r.Intn(n)]
		}
		bs := &Sample{xs: buf}
		sort.Float64s(bs.xs)
		vals[it] = stat(bs)
	}
	sort.Float64s(vals)
	alpha := (1 - conf) / 2
	// Symmetric percentile ranks: floor(alpha*iters) values below the
	// lower endpoint and the same number above the upper one. The naive
	// int((1-alpha)*iters) picks one rank too high (e.g. index 975 of
	// 1000 for a 95% interval, leaving only 24 values above it).
	loIdx := int(alpha * float64(iters))
	hiIdx := int(math.Ceil((1-alpha)*float64(iters))) - 1
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	if hiIdx < loIdx {
		hiIdx = loIdx
	}
	return vals[loIdx], vals[hiIdx], nil
}

// PairedRatioCI returns the percentile bootstrap confidence interval of
// mean(a)/mean(b) at the given confidence level, where a[i] and b[i]
// are one pair (two arms run on one seed). Each of the iters resamples
// draws len(a) pair indices with replacement from a stream seeded with
// seed, so the interval is a pure function of its arguments. This is
// the referee of the BENCH_*.json comparisons: an arm beats another
// beyond the CI when hi < 1.
func PairedRatioCI(a, b []int64, iters int, conf float64, seed uint64) (lo, hi float64, err error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: PairedRatioCI needs two non-empty samples of one length, got %d and %d", len(a), len(b))
	}
	if iters < 1 {
		return 0, 0, errors.New("stats: PairedRatioCI needs iters >= 1")
	}
	if conf <= 0 || conf >= 1 {
		return 0, 0, fmt.Errorf("stats: confidence %v outside (0,1)", conf)
	}
	r := rng.New(seed)
	n := len(a)
	ratios := make([]float64, iters)
	for it := range ratios {
		var sa, sb float64
		for range n {
			i := r.Intn(n)
			sa += float64(a[i])
			sb += float64(b[i])
		}
		ratios[it] = sa / sb
	}
	sort.Float64s(ratios)
	alpha := (1 - conf) / 2
	return ratios[int(alpha*float64(iters))], ratios[int(math.Ceil((1-alpha)*float64(iters)))-1], nil
}

// KS2 returns the two-sample Kolmogorov-Smirnov statistic D — the
// largest gap between the two empirical CDFs — and its asymptotic
// p-value (Stephens' small-sample correction of the effective size).
// Both samples must be non-empty.
func KS2(a, b []int64) (d, p float64) {
	x := append([]int64(nil), a...)
	y := append([]int64(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		v := min(x[i], y[j])
		for i < len(x) && x[i] == v {
			i++
		}
		for j < len(y) && y[j] == v {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(x))-float64(j)/float64(len(y))))
	}
	ne := float64(len(x)*len(y)) / float64(len(x)+len(y))
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	if lambda < 0.2 { // the series below does not converge; Q(0.2) rounds to 1
		return d, 1
	}
	for k := 1; k <= 100; k++ {
		term := 2 * math.Exp(-2*float64(k*k)*lambda*lambda)
		if k%2 == 0 {
			term = -term
		}
		p += term
	}
	return d, math.Min(1, math.Max(0, p))
}

// ShiftedExp is the parametric runtime model T = Shift + Exp(mean
// Scale): a deterministic floor plus a memoryless search phase. Its
// multi-walk speedup saturates at (Shift+Scale)/Shift; with Shift = 0
// the speedup is exactly k (the paper's "ideal" Costas regime).
type ShiftedExp struct {
	Shift float64
	Scale float64
}

// FitShiftedExp fits the model by moments: Shift from the sample
// minimum (shrunk by the exponential's expected minimum gap so the
// estimator is not systematically high), Scale from the residual mean.
func FitShiftedExp(s *Sample) ShiftedExp {
	n := float64(s.N())
	m := s.Mean()
	mn := s.Min()
	// E[min of n exp(scale)] = scale/n: correct the shift accordingly.
	// Solve shift = mn - scale/n, scale = m - shift.
	scale := (m - mn) * n / (n - 1)
	if s.N() == 1 || scale < 0 {
		scale = 0
	}
	shift := m - scale
	if shift < 0 {
		shift = 0
		scale = m
	}
	return ShiftedExp{Shift: shift, Scale: scale}
}

// Mean returns the model mean.
func (m ShiftedExp) Mean() float64 { return m.Shift + m.Scale }

// ExpectedMin returns E[min_k] = Shift + Scale/k under the model.
func (m ShiftedExp) ExpectedMin(k int) float64 {
	return m.Shift + m.Scale/float64(k)
}

// Speedup returns the model speedup on k cores.
func (m ShiftedExp) Speedup(k int) float64 {
	em := m.ExpectedMin(k)
	if em == 0 {
		return float64(k)
	}
	return m.Mean() / em
}

// SaturationSpeedup returns the asymptotic speedup limit
// (Shift+Scale)/Shift, or +Inf when Shift = 0.
func (m ShiftedExp) SaturationSpeedup() float64 {
	if m.Shift == 0 {
		return math.Inf(1)
	}
	return m.Mean() / m.Shift
}

// QQExponentialR2 returns the squared correlation of the sample
// quantiles against exponential quantiles. Values near 1 indicate an
// exponential-like distribution (the memoryless regime with ideal
// multi-walk speedup).
func (s *Sample) QQExponentialR2() float64 {
	n := len(s.xs)
	if n < 3 {
		return 0
	}
	theo := make([]float64, n)
	for i := range theo {
		p := (float64(i) + 0.5) / float64(n)
		theo[i] = -math.Log(1 - p)
	}
	return r2(theo, s.xs)
}

// r2 returns the squared Pearson correlation of x and y.
func r2(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov * cov / (vx * vy)
}

// LogLogSlope fits log(y) = slope*log(x) + intercept by least squares.
// The paper's Fig. 3 plots CAP speedups on a log-log scale against an
// ideal line; a slope of 1 is linear speedup. All inputs must be
// positive and the slices of equal length >= 2.
func LogLogSlope(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, errors.New("stats: LogLogSlope needs two equal-length series of >= 2 points")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, fmt.Errorf("stats: LogLogSlope needs positive values, got (%v, %v)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	n := float64(len(lx))
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := sxx - sx*sx/n
	if den == 0 {
		return 0, 0, errors.New("stats: LogLogSlope x values are all equal")
	}
	slope = (sxy - sx*sy/n) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}
