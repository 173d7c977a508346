package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustSample(t *testing.T, xs ...float64) *Sample {
	t.Helper()
	s, err := New(xs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := New([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := New([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
	if _, err := New([]float64{-1}); err == nil {
		t.Error("negative accepted")
	}
}

func TestNewCopiesInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := mustSample(t, xs...)
	xs[0] = 99
	if s.Max() == 99 {
		t.Fatal("Sample aliases caller slice")
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("unexpected min/max: %v %v", s.Min(), s.Max())
	}
}

func TestFromInts(t *testing.T) {
	s, err := FromInts([]int64{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("FromInts wrong: n=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
}

func TestBasicMoments(t *testing.T) {
	s := mustSample(t, 2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, 32.0/7)
	}
	if got := s.Median(); got != 4.5 {
		t.Errorf("Median = %v, want 4.5", got)
	}
	one := mustSample(t, 3)
	if one.Var() != 0 || one.Std() != 0 {
		t.Error("single-observation variance must be 0")
	}
}

func TestQuantile(t *testing.T) {
	s := mustSample(t, 1, 2, 3, 4, 5)
	cases := []struct{ q, want float64 }{
		{-1, 1}, {0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {2, 5},
		{0.1, 1.4},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestECDF(t *testing.T) {
	s := mustSample(t, 3, 1, 2)
	xs, ps := s.ECDF()
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("ECDF xs = %v", xs)
	}
	if ps[0] <= 0 || ps[2] != 1 {
		t.Fatalf("ECDF ps = %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatal("ECDF not strictly increasing")
		}
	}
}

func TestExpectedMinSmallCases(t *testing.T) {
	s := mustSample(t, 1, 2, 3, 4, 5)
	em1, err := s.ExpectedMin(1)
	if err != nil || math.Abs(em1-3) > 1e-12 {
		t.Fatalf("E[min_1] = %v (%v), want mean 3", em1, err)
	}
	em2, _ := s.ExpectedMin(2)
	if math.Abs(em2-2.0) > 1e-12 {
		t.Fatalf("E[min_2] = %v, want 2.0", em2)
	}
	em5, _ := s.ExpectedMin(5)
	if em5 != 1 {
		t.Fatalf("E[min_n] = %v, want the minimum 1", em5)
	}
	em9, _ := s.ExpectedMin(9) // k > n degenerates to the minimum
	if em9 != 1 {
		t.Fatalf("E[min_{k>n}] = %v, want 1", em9)
	}
	if _, err := s.ExpectedMin(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestExpectedMinMatchesBruteForce enumerates all k-subsets for small
// samples and compares the closed-form estimator against the exact
// subset average.
func TestExpectedMinMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = math.Floor(r.Float64() * 100)
	}
	s := mustSample(t, xs...)
	for k := 1; k <= 10; k++ {
		want := bruteForceMinMean(s.xs, k)
		got, err := s.ExpectedMin(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("k=%d: ExpectedMin = %v, brute force = %v", k, got, want)
		}
	}
}

// bruteForceMinMean averages min(S) over all k-subsets of xs.
func bruteForceMinMean(xs []float64, k int) float64 {
	n := len(xs)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	total, count := 0.0, 0
	for {
		m := math.Inf(1)
		for _, i := range idx {
			if xs[i] < m {
				m = xs[i]
			}
		}
		total += m
		count++
		// next combination
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return total / float64(count)
}

func TestExpectedMinMonteCarloAgrees(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 100
	}
	s := mustSample(t, xs...)
	for _, k := range []int{2, 8, 32} {
		exact, _ := s.ExpectedMin(k)
		mc, err := s.MonteCarloMin(k, 20000, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-mc)/exact > 0.1 {
			t.Fatalf("k=%d: exact %v vs Monte Carlo %v differ by >10%%", k, exact, mc)
		}
	}
	if _, err := s.MonteCarloMin(0, 10, r); err == nil {
		t.Fatal("MonteCarloMin k=0 accepted")
	}
}

func TestSpeedupMonotone(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 10 + r.ExpFloat64()*90
	}
	s := mustSample(t, xs...)
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		sp, err := s.Speedup(k)
		if err != nil {
			t.Fatal(err)
		}
		if sp < prev {
			t.Fatalf("speedup not monotone at k=%d: %v < %v", k, sp, prev)
		}
		prev = sp
	}
	sp1, _ := s.Speedup(1)
	if math.Abs(sp1-1) > 1e-12 {
		t.Fatalf("Speedup(1) = %v, want 1", sp1)
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	s := mustSample(t, 0, 0, 0)
	if _, err := s.Speedup(2); err == nil {
		t.Fatal("degenerate all-zero sample accepted")
	}
}

// TestExponentialSpeedupNearIdeal is the statistical heart of Fig. 3:
// exponential runtimes give speedup(k) ~ k.
func TestExponentialSpeedupNearIdeal(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 1000
	}
	s := mustSample(t, xs...)
	for _, k := range []int{2, 4, 8, 16} {
		sp, _ := s.Speedup(k)
		if math.Abs(sp-float64(k))/float64(k) > 0.15 {
			t.Fatalf("exponential speedup at k=%d is %v, want ~%d", k, sp, k)
		}
	}
}

// TestShiftedSpeedupSaturates is the heart of Figs. 1-2: a runtime
// floor caps the speedup at mean/shift.
func TestShiftedSpeedupSaturates(t *testing.T) {
	r := rng.New(4)
	const shift, scale = 100.0, 100.0
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = shift + r.ExpFloat64()*scale
	}
	s := mustSample(t, xs...)
	sp64, _ := s.Speedup(64)
	sp128, _ := s.Speedup(128)
	// Saturation limit = (shift+scale)/shift = 2.
	if sp64 > 2.1 || sp128 > 2.1 {
		t.Fatalf("speedup exceeded saturation limit: %v %v", sp64, sp128)
	}
	if sp64 < 1.6 {
		t.Fatalf("speedup at 64 cores = %v, expected close to the limit 2", sp64)
	}
	if sp128 < sp64 {
		t.Fatalf("speedup decreased: %v -> %v", sp64, sp128)
	}
}

func TestFitShiftedExp(t *testing.T) {
	r := rng.New(6)
	const shift, scale = 500.0, 250.0
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = shift + r.ExpFloat64()*scale
	}
	s := mustSample(t, xs...)
	m := FitShiftedExp(s)
	if math.Abs(m.Shift-shift)/shift > 0.05 {
		t.Fatalf("fitted shift %v, want ~%v", m.Shift, shift)
	}
	if math.Abs(m.Scale-scale)/scale > 0.05 {
		t.Fatalf("fitted scale %v, want ~%v", m.Scale, scale)
	}
	// Saturation = (shift+scale)/shift = 750/500 = 1.5.
	if sat := m.SaturationSpeedup(); math.Abs(sat-1.5) > 0.1 {
		t.Fatalf("saturation speedup %v, want ~1.5", sat)
	}
}

func TestFitShiftedExpPureExponential(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 800
	}
	s := mustSample(t, xs...)
	m := FitShiftedExp(s)
	if m.Shift > 0.05*m.Mean() {
		t.Fatalf("pure exponential fitted with shift %v (mean %v)", m.Shift, m.Mean())
	}
	if !math.IsInf(ShiftedExp{Shift: 0, Scale: 1}.SaturationSpeedup(), 1) {
		t.Fatal("zero-shift saturation should be +Inf")
	}
	// Model speedup ~ k for small shift.
	if sp := m.Speedup(64); sp < 40 {
		t.Fatalf("near-exponential model speedup at 64 = %v, want ~64", sp)
	}
}

func TestFitShiftedExpDegenerate(t *testing.T) {
	s := mustSample(t, 5)
	m := FitShiftedExp(s)
	if m.Shift != 5 || m.Scale != 0 {
		t.Fatalf("single-point fit: %+v", m)
	}
	if m.ExpectedMin(10) != 5 {
		t.Fatal("deterministic model must have constant min")
	}
}

func TestCVDiagnostic(t *testing.T) {
	r := rng.New(8)
	exp := make([]float64, 3000)
	shifted := make([]float64, 3000)
	for i := range exp {
		exp[i] = r.ExpFloat64() * 100
		shifted[i] = 300 + r.ExpFloat64()*100
	}
	se := mustSample(t, exp...)
	ss := mustSample(t, shifted...)
	if cv := se.CV(); math.Abs(cv-1) > 0.1 {
		t.Fatalf("exponential CV = %v, want ~1", cv)
	}
	if cv := ss.CV(); cv > 0.5 {
		t.Fatalf("shifted CV = %v, want well below 1", cv)
	}
	zero := mustSample(t, 0, 0)
	if zero.CV() != 0 {
		t.Fatal("all-zero CV should be 0")
	}
}

func TestQQExponentialR2(t *testing.T) {
	r := rng.New(10)
	exp := make([]float64, 2000)
	bimodal := make([]float64, 2000)
	for i := range exp {
		exp[i] = r.ExpFloat64() * 50
		if i%2 == 0 {
			bimodal[i] = 10 + r.Float64()
		} else {
			bimodal[i] = 1000 + r.Float64()
		}
	}
	se := mustSample(t, exp...)
	sb := mustSample(t, bimodal...)
	if got := se.QQExponentialR2(); got < 0.98 {
		t.Fatalf("exponential QQ R2 = %v, want > 0.98", got)
	}
	if got := sb.QQExponentialR2(); got > 0.9 {
		t.Fatalf("bimodal QQ R2 = %v, want < 0.9", got)
	}
	tiny := mustSample(t, 1, 2)
	if tiny.QQExponentialR2() != 0 {
		t.Fatal("n<3 QQ R2 should be 0")
	}
}

func TestBootstrap(t *testing.T) {
	r := rng.New(11)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 50 + r.ExpFloat64()*10
	}
	s := mustSample(t, xs...)
	mean := s.Mean()
	lo, hi, err := s.Bootstrap(func(b *Sample) float64 { return b.Mean() }, 500, 0.95, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if lo > mean || hi < mean {
		t.Fatalf("bootstrap CI [%v, %v] excludes the point estimate %v", lo, hi, mean)
	}
	if hi <= lo {
		t.Fatalf("degenerate CI [%v, %v]", lo, hi)
	}
	if _, _, err := s.Bootstrap(func(b *Sample) float64 { return 0 }, 5, 0.95, r); err == nil {
		t.Fatal("iters<10 accepted")
	}
	if _, _, err := s.Bootstrap(func(b *Sample) float64 { return 0 }, 100, 1.5, r); err == nil {
		t.Fatal("conf>1 accepted")
	}
}

// TestBootstrapPercentileRanks replays the resampling loop with the
// same deterministic seed and pins both CI endpoints to the symmetric
// order-statistic ranks floor(alpha*iters) and ceil((1-alpha)*iters)-1.
// The pre-fix code selected int((1-alpha)*iters) for the upper endpoint
// — one rank too high (index 975 of 1000 for a 95% interval) — which
// this test rejects.
func TestBootstrapPercentileRanks(t *testing.T) {
	base := rng.New(7)
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = base.ExpFloat64() * 100
	}
	s := mustSample(t, xs...)

	const iters = 1000
	const conf = 0.95
	const seed = 42
	lo, hi, err := s.Bootstrap(func(b *Sample) float64 { return b.Mean() }, iters, conf, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}

	// Replay the exact resampling sequence to recover the sorted
	// bootstrap distribution Bootstrap drew from.
	r := rng.New(seed)
	n := s.N()
	vals := make([]float64, iters)
	buf := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range buf {
			buf[i] = s.xs[r.Intn(n)]
		}
		bs, err := New(buf)
		if err != nil {
			t.Fatal(err)
		}
		vals[it] = bs.Mean()
	}
	sort.Float64s(vals)

	// alpha = 0.025: 25 values below the lower endpoint, 25 above the
	// upper one.
	wantLo, wantHi := vals[25], vals[974]
	if lo != wantLo {
		t.Errorf("lower endpoint = %v, want vals[25] = %v", lo, wantLo)
	}
	if hi != wantHi {
		t.Errorf("upper endpoint = %v, want vals[974] = %v (pre-fix code returns vals[975] = %v)", hi, wantHi, vals[975])
	}
	if below, above := rankCount(vals, lo, hi); below != 25 || above != 25 {
		t.Errorf("asymmetric interval: %d values below lo, %d above hi", below, above)
	}
}

// rankCount counts bootstrap values strictly below lo and strictly
// above hi.
func rankCount(vals []float64, lo, hi float64) (below, above int) {
	for _, v := range vals {
		if v < lo {
			below++
		}
		if v > hi {
			above++
		}
	}
	return below, above
}

func TestLogLogSlope(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x // slope 2, intercept log(3)
	}
	slope, intercept, err := LogLogSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", slope)
	}
	if math.Abs(intercept-math.Log(3)) > 1e-9 {
		t.Fatalf("intercept = %v, want log 3", intercept)
	}
	if _, _, err := LogLogSlope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("short series accepted")
	}
	if _, _, err := LogLogSlope([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Fatal("negative x accepted")
	}
	if _, _, err := LogLogSlope([]float64{2, 2}, []float64{1, 2}); err == nil {
		t.Fatal("constant x accepted")
	}
}

// TestExpectedMinScaleInvariance: Ê[min_k] is linear in the data.
func TestExpectedMinScaleInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		s1, _ := New(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = 3 * xs[i]
		}
		s3, _ := New(scaled)
		a, _ := s1.ExpectedMin(7)
		b, _ := s3.ExpectedMin(7)
		return math.Abs(3*a-b) < 1e-9*(1+math.Abs(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestExpectedMinInvariants: Ê[min_k] is nonincreasing in k, bounded
// below by the sample minimum, and speedup is always >= 1. (Note that
// speedup <= k is NOT an invariant: bimodal runtime distributions give
// superlinear expected speedup, a classic result of the restart
// literature that the multi-walk scheme inherits.)
func TestExpectedMinInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 60)
		for i := range xs {
			xs[i] = 1 + r.Float64()*1000
		}
		s, _ := New(xs)
		prev := math.Inf(1)
		for _, k := range []int{1, 2, 5, 13, 59} {
			em, err := s.ExpectedMin(k)
			if err != nil || em > prev+1e-9 || em < s.Min()-1e-9 {
				return false
			}
			sp, err := s.Speedup(k)
			if err != nil || sp < 1-1e-9 {
				return false
			}
			prev = em
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSuperlinearSpeedupPossible documents the bimodal counterexample:
// a 90%-fast / 10%-slow mixture yields speedup above k.
func TestSuperlinearSpeedupPossible(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		if i < 90 {
			xs[i] = 1
		} else {
			xs[i] = 10000
		}
	}
	s := mustSample(t, xs...)
	sp, err := s.Speedup(2)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 2 {
		t.Fatalf("bimodal speedup at k=2 is %v, expected superlinear (> 2)", sp)
	}
}

// TestKS2HandComputed pins KS2 on samples small enough to work by hand.
// D is the largest |F_a - F_b| over the pooled values, taken after all
// ties at a value; p follows from λ = (√nₑ + 0.12 + 0.11/√nₑ)·D with
// nₑ = nm/(n+m) and Q(λ) = 2 Σ (-1)^(k-1) exp(-2k²λ²).
func TestKS2HandComputed(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []int64
		d, p float64
	}{
		// Disjoint: F_a reaches 1 before F_b leaves 0. nₑ = 1.5,
		// λ = 1.43456, Q = 2(e^-4.1159 - e^-16.464 + …) = 0.032622.
		{"disjoint", []int64{1, 2, 3}, []int64{4, 5, 6}, 1, 0.032622},
		// F_a - F_b after 1..6: 1/4, 2/4, 3/4-1/4, 1-2/4, 1-3/4, 0.
		// nₑ = 2, λ = 0.80600, Q = 0.534416.
		{"overlap", []int64{4, 3, 2, 1}, []int64{3, 6, 5, 4}, 0.5, 0.534416},
		// Ties across the samples: at 1 the gap is 2/3 - 1/3, at 2 it is
		// 0; splitting the tie at 1 would read 2/3. λ = 0.47819.
		{"ties", []int64{1, 1, 2}, []int64{1, 2, 2}, 1.0 / 3, 0.976213},
		// Identical samples: D = 0, below the series' range, p = 1.
		{"identical", []int64{5, 7, 7}, []int64{7, 5, 7}, 0, 1},
	} {
		d, p := KS2(tc.a, tc.b)
		if math.Abs(d-tc.d) > 1e-12 || math.Abs(p-tc.p) > 5e-6 {
			t.Errorf("%s: KS2 = (%v, %v), want (%v, %v)", tc.name, d, p, tc.d, tc.p)
		}
	}
}

// TestPairedRatioCIHandComputed pins the paired bootstrap on samples
// whose resampling distribution can be written down.
func TestPairedRatioCIHandComputed(t *testing.T) {
	// Every pair has ratio 2, so every resample's ratio of sums is
	// exactly 2 (doubling integers is exact in float64).
	lo, hi, err := PairedRatioCI([]int64{2, 8, 14, 40}, []int64{1, 4, 7, 20}, 1000, 0.95, 1)
	if err != nil || lo != 2 || hi != 2 {
		t.Errorf("constant ratio: [%v, %v] %v, want [2, 2]", lo, hi, err)
	}
	// One pair: every resample is that pair.
	if lo, hi, err := PairedRatioCI([]int64{3}, []int64{4}, 10, 0.95, 1); err != nil || lo != 0.75 || hi != 0.75 {
		t.Errorf("one pair: [%v, %v] %v, want [0.75, 0.75]", lo, hi, err)
	}
	// Pairs (1,1) and (3,1): a resample of two is (1+1)/2, (1+3)/2 or
	// (3+3)/2 with probabilities 1/4, 1/2, 1/4. A 90% interval cuts 5%
	// off each tail, inside the 25% masses at 1 and 3.
	lo, hi, err = PairedRatioCI([]int64{1, 3}, []int64{1, 1}, 4000, 0.9, 7)
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("two pairs: [%v, %v] %v, want [1, 3]", lo, hi, err)
	}
	// The seed is the whole source of randomness.
	a := []int64{10, 30, 25, 7, 90, 41}
	b := []int64{12, 20, 30, 9, 60, 50}
	lo1, hi1, _ := PairedRatioCI(a, b, 500, 0.95, 42)
	lo2, hi2, _ := PairedRatioCI(a, b, 500, 0.95, 42)
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("same seed gave [%v, %v] and [%v, %v]", lo1, hi1, lo2, hi2)
	}
	if point := 203.0 / 181; !(lo1 <= point && point <= hi1) {
		t.Errorf("CI [%v, %v] misses the point estimate %v", lo1, hi1, point)
	}
	for _, bad := range []struct {
		a, b  []int64
		iters int
		conf  float64
	}{
		{nil, nil, 10, 0.95},
		{[]int64{1, 2}, []int64{1}, 10, 0.95},
		{[]int64{1}, []int64{1}, 0, 0.95},
		{[]int64{1}, []int64{1}, 10, 1},
	} {
		if _, _, err := PairedRatioCI(bad.a, bad.b, bad.iters, bad.conf, 1); err == nil {
			t.Errorf("PairedRatioCI(%v, %v, %d, %v) accepted", bad.a, bad.b, bad.iters, bad.conf)
		}
	}
}
