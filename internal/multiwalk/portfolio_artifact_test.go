package multiwalk

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// BENCH_portfolio_vs_adaptive.json settles the heterogeneous strategy
// portfolio by the paper's own method: k independent walkers are worth
// E[min of k draws] from the sequential runtime distribution. Walker
// identity (and so its seed) is global, so the walkers of a mix are
// independent draws from their strategies' sequential distributions,
// and one sequential sample per (problem, strategy) prices every mix
// at every walker count:
//
//	E[min] = ∫ Π_s S_s(t)^a_s dt
//
// with S_s the empirical survival function of strategy s's sample and
// a_s the number of walkers the mix gives s. This file holds the
// artifact's schema, that estimator and the test that recomputes every
// number of the committed file from its stored samples. The
// measurement that wrote the file (TestPortfolioVsAdaptive) ran at the
// file's rev; the rule deleted the portfolio and both strategies it
// measured, and the measurement with them.

// The rule, fixed before the measurement and stored in the artifact
// ahead of its numbers. pfCrossGate is the cross-check's: a direct
// ratio over 200 seeds has a sampling spread several times the width
// of the order-statistic CI over 500 (the estimator averages over every
// k-subset of its sample), so "the direct ratio falls in that CI" would
// fail most runs of a correct estimator; the two are inconsistent only
// when their CIs are disjoint.
const (
	pfCrossGate     = "the order-statistic estimator stands iff, on every problem, the direct RunVirtual ratio's paired CI overlaps the order-statistic CI of the same cell (raw); the direct ratio inside the order-statistic CI is recorded but not required"
	pfRulePortfolio = "the portfolio stays iff, priced, the cell's mix (picked on the dev seeds) beats pure adaptive beyond the CI (ratio_priced_ci_hi < 1) at one walker count on at least two of the four problems"
	pfRuleStrategy  = "a built-in strategy stays iff, alone and priced, it beats pure adaptive beyond the CI (ratio_priced_ci_hi < 1) on at least one problem at some walker count"
)

// pfStrategies is the order of the stored samples and of every counts
// vector: index 0 is the baseline.
var pfStrategies = []string{"adaptive", "random-walk", "metropolis"}

type pfRule struct {
	Portfolio  string `json:"portfolio"`
	Strategy   string `json:"strategy"`
	CrossCheck string `json:"cross_check"`
}

// pfSpread is a per-chunk measurement's median and quartiles.
type pfSpread struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Chunks []float64 `json:"chunks"`
}

// pfSample is one strategy's sequential walks on one problem, in seed
// order; a walk capped at cap_iters is stored as cap_iters.
type pfSample struct {
	Strategy        string   `json:"strategy"`
	NsPerIter       pfSpread `json:"ns_per_iter"`
	CensoredDev     int      `json:"censored_dev"`
	CensoredConfirm int      `json:"censored_confirm"`
	ConfirmMean     float64  `json:"confirm_mean"`
	Dev             []int64  `json:"dev"`
	Confirm         []int64  `json:"confirm"`
}

// pfDevPoint is one mix's order-statistic estimate on the dev seeds.
type pfDevPoint struct {
	Mix        string  `json:"mix"`
	Counts     []int   `json:"counts"`
	EMinRaw    float64 `json:"emin_raw"`
	EMinPriced float64 `json:"emin_priced_ns"`
}

// pfArm compares one arm at one walker count with pure adaptive on the
// confirmation seeds.
type pfArm struct {
	Arm           string  `json:"arm"`
	Counts        []int   `json:"counts"`
	EMinRaw       float64 `json:"emin_raw"`
	EMinPriced    float64 `json:"emin_priced_ns"`
	RatioRaw      float64 `json:"ratio_raw"`
	RatioRawLo    float64 `json:"ratio_raw_ci_lo"`
	RatioRawHi    float64 `json:"ratio_raw_ci_hi"`
	RatioPriced   float64 `json:"ratio_priced"`
	RatioPricedLo float64 `json:"ratio_priced_ci_lo"`
	RatioPricedHi float64 `json:"ratio_priced_ci_hi"`
	Verdict       string  `json:"verdict"`
}

// pfCell is one (problem, walker count): the dev pick and the three
// arms (the picked mix, then each alternative strategy alone).
type pfCell struct {
	Walkers         int          `json:"walkers"`
	Dev             []pfDevPoint `json:"dev"`
	Mix             string       `json:"mix"`
	AdaptiveEMinRaw float64      `json:"adaptive_emin_raw"`
	AdaptiveEMinNs  float64      `json:"adaptive_emin_priced_ns"`
	Arms            []pfArm      `json:"arms"`
}

// pfCrossCheck runs RunVirtual directly at one walker count on fresh
// seeds, pure adaptive against the cell's mix, and sets the direct
// ratio beside the order-statistic one. Inside records whether the
// direct ratio falls in the order-statistic CI; Overlap, the gate,
// whether the two CIs meet (see pfCrossGate).
type pfCrossCheck struct {
	Walkers          int     `json:"walkers"`
	Mix              string  `json:"mix"`
	Seeds            [2]int  `json:"seeds"`
	AdaptiveWinner   []int64 `json:"adaptive_winner_iters"`
	MixWinner        []int64 `json:"mix_winner_iters"`
	AdaptiveCensored int     `json:"adaptive_censored"`
	MixCensored      int     `json:"mix_censored"`
	Ratio            float64 `json:"ratio_of_means"`
	RatioLo          float64 `json:"ratio_ci_lo"`
	RatioHi          float64 `json:"ratio_ci_hi"`
	KSD              float64 `json:"ks_d"`
	KSP              float64 `json:"ks_p"`
	OSRatio          float64 `json:"order_statistic_ratio"`
	OSRatioLo        float64 `json:"order_statistic_ci_lo"`
	OSRatioHi        float64 `json:"order_statistic_ci_hi"`
	Inside           bool    `json:"inside_order_statistic_ci"`
	Overlap          bool    `json:"cis_overlap"`
}

type pfProblem struct {
	Problem    string       `json:"problem"`
	Size       int          `json:"size"`
	Samples    []pfSample   `json:"samples"`
	Cells      []pfCell     `json:"cells"`
	CrossCheck pfCrossCheck `json:"cross_check"`
}

type pfDecision struct {
	Portfolio  string            `json:"portfolio"`
	Strategies map[string]string `json:"strategies"`
}

type pfArtifact struct {
	Note           string              `json:"note"`
	Rev            string              `json:"rev"`
	GoVersion      string              `json:"go_version"`
	CPU            string              `json:"cpu"`
	NProc          int                 `json:"nproc"`
	GOMAXPROCS     int                 `json:"gomaxprocs"`
	Rule           pfRule              `json:"rule"`
	Method         []string            `json:"method"`
	Scale          string              `json:"scale"`
	CapIters       int64               `json:"cap_iters"`
	DevSeeds       [2]int              `json:"dev_seeds"`
	ConfirmSeeds   [2]int              `json:"confirm_seeds"`
	ChunkSeeds     int                 `json:"chunk_seeds"`
	BootstrapIters int                 `json:"bootstrap_iters"`
	BootstrapSeed  uint64              `json:"bootstrap_seed"`
	Confidence     float64             `json:"confidence"`
	Walkers        []int               `json:"walkers"`
	Mixes          []string            `json:"mixes"`
	WallSeconds    float64             `json:"wall_seconds"`
	Problems       []pfProblem         `json:"problems"`
	PortfolioWins  map[string][]string `json:"portfolio_wins_by_walkers"`
	StrategyWins   map[string][]string `json:"strategy_wins"`
	Decision       pfDecision          `json:"decision"`
}

// pfPoint is one draw on the merged time axis of several samples.
type pfPoint struct {
	x    float64
	s, i int
}

// pfOrder merges the draws of the strategies with counts[s] > 0, each
// scaled by its price, into one ascending axis (ties by strategy, then
// seed index, so the order is a pure function of its inputs).
func pfOrder(samples [][]int64, price []float64, counts []int) []pfPoint {
	var pts []pfPoint
	for s, xs := range samples {
		if counts[s] == 0 {
			continue
		}
		for i, v := range xs {
			pts = append(pts, pfPoint{float64(v) * price[s], s, i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].x != pts[b].x {
			return pts[a].x < pts[b].x
		}
		if pts[a].s != pts[b].s {
			return pts[a].s < pts[b].s
		}
		return pts[a].i < pts[b].i
	})
	return pts
}

// pfPowers returns tab[r] = (r/n)^a for r in [0, n]: the survival
// factor of a strategy with a walkers when r of the n (weighted) draws
// still lie ahead.
func pfPowers(n, a int) []float64 {
	tab := make([]float64, n+1)
	for r := range tab {
		tab[r] = math.Pow(float64(r)/float64(n), float64(a))
	}
	return tab
}

// pfEMin integrates Π_s S_s(t)^a_s along a merged axis, where draw i
// carries weight w[i] (1 for the sample itself, the resample count in a
// bootstrap) and the weights of each strategy sum to n. pow[s] is
// pfPowers(n, a_s), nil for a strategy the mix leaves out.
func pfEMin(order []pfPoint, w []int, pow [][]float64, n int) float64 {
	rem := make([]int, len(pow))
	for s := range rem {
		rem[s] = n
	}
	e, prev := 0.0, 0.0
	for _, p := range order {
		f := 1.0
		for s, tab := range pow {
			if tab != nil {
				f *= tab[rem[s]]
			}
		}
		if f == 0 {
			break
		}
		e += (p.x - prev) * f
		prev = p.x
		rem[p.s] -= w[p.i]
	}
	return e
}

// pfEstimator evaluates mixes over one set of samples (all of one
// length n, in seed order) and one price vector.
type pfEstimator struct {
	samples [][]int64
	price   []float64
	n       int
	pow     map[int][]float64
}

func newPFEstimator(samples [][]int64, price []float64) *pfEstimator {
	return &pfEstimator{samples: samples, price: price, n: len(samples[0]), pow: map[int][]float64{}}
}

// mix prepares the two axes (raw iterations, priced ns) of one counts
// vector.
func (e *pfEstimator) mix(counts []int) pfMixAxes {
	ones := make([]float64, len(e.price))
	for s := range ones {
		ones[s] = 1
	}
	pow := make([][]float64, len(counts))
	for s, a := range counts {
		if a == 0 {
			continue
		}
		if e.pow[a] == nil {
			e.pow[a] = pfPowers(e.n, a)
		}
		pow[s] = e.pow[a]
	}
	return pfMixAxes{raw: pfOrder(e.samples, ones, counts), priced: pfOrder(e.samples, e.price, counts), pow: pow, n: e.n}
}

type pfMixAxes struct {
	raw, priced []pfPoint
	pow         [][]float64
	n           int
}

// emin returns E[min] in iterations and in ns under weights w.
func (m pfMixAxes) emin(w []int) (raw, priced float64) {
	return pfEMin(m.raw, w, m.pow, m.n), pfEMin(m.priced, w, m.pow, m.n)
}

func pfOnes(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// pfVerdict reads an arm's priced CI against pure adaptive.
func pfVerdict(arm string, lo, hi float64) string {
	switch {
	case hi < 1:
		return arm + " better"
	case lo > 1:
		return "adaptive better"
	}
	return "level"
}

// pfPercentiles returns the percentile CI of vals at conf, with the
// ranks stats.PairedRatioCI uses. vals is sorted in place.
func pfPercentiles(vals []float64, conf float64) (lo, hi float64) {
	sort.Float64s(vals)
	alpha := (1 - conf) / 2
	return vals[int(alpha*float64(len(vals)))], vals[int(math.Ceil((1-alpha)*float64(len(vals))))-1]
}

// pfConfirm fills every arm of a problem's cells from the confirmation
// samples: point estimates, and raw and priced ratio CIs from one joint
// bootstrap that resamples seed indices, the same indices for every
// strategy. Cells must carry Walkers and each arm its Arm and Counts.
func pfConfirm(samples [][]int64, price []float64, cells []pfCell, iters int, seed uint64, conf float64) {
	est := newPFEstimator(samples, price)
	type axes struct {
		adaptive pfMixAxes
		arm      []pfMixAxes
	}
	ax := make([]axes, len(cells))
	for c, cell := range cells {
		ax[c].adaptive = est.mix(pfAlone(0, cell.Walkers))
		for _, arm := range cell.Arms {
			ax[c].arm = append(ax[c].arm, est.mix(arm.Counts))
		}
	}
	ones := pfOnes(est.n)
	for c := range cells {
		cell := &cells[c]
		cell.AdaptiveEMinRaw, cell.AdaptiveEMinNs = ax[c].adaptive.emin(ones)
		for a := range cell.Arms {
			arm := &cell.Arms[a]
			arm.EMinRaw, arm.EMinPriced = ax[c].arm[a].emin(ones)
			arm.RatioRaw, arm.RatioPriced = arm.EMinRaw/cell.AdaptiveEMinRaw, arm.EMinPriced/cell.AdaptiveEMinNs
		}
	}
	if iters == 0 {
		return
	}
	raw := make([][][]float64, len(cells))
	priced := make([][][]float64, len(cells))
	for c, cell := range cells {
		for range cell.Arms {
			raw[c] = append(raw[c], make([]float64, iters))
			priced[c] = append(priced[c], make([]float64, iters))
		}
	}
	r := rng.New(seed)
	w := make([]int, est.n)
	for b := range iters {
		clear(w)
		for range est.n {
			w[r.Intn(est.n)]++
		}
		for c := range cells {
			aRaw, aPriced := ax[c].adaptive.emin(w)
			for a := range cells[c].Arms {
				mRaw, mPriced := ax[c].arm[a].emin(w)
				raw[c][a][b], priced[c][a][b] = mRaw/aRaw, mPriced/aPriced
			}
		}
	}
	for c := range cells {
		for a := range cells[c].Arms {
			arm := &cells[c].Arms[a]
			arm.RatioRawLo, arm.RatioRawHi = pfPercentiles(raw[c][a], conf)
			arm.RatioPricedLo, arm.RatioPricedHi = pfPercentiles(priced[c][a], conf)
			arm.Verdict = pfVerdict(arm.Arm, arm.RatioPricedLo, arm.RatioPricedHi)
		}
	}
}

// pfAlone is the counts vector of k walkers all running strategy s.
func pfAlone(s, k int) []int {
	counts := make([]int, len(pfStrategies))
	counts[s] = k
	return counts
}

// pfPick fills a cell's dev points for the candidate mixes (name →
// counts, in candidate order) and picks the one with the least priced
// E[min] on the dev samples; the first wins a tie.
func pfPick(samples [][]int64, price []float64, names []string, counts [][]int) ([]pfDevPoint, int) {
	est := newPFEstimator(samples, price)
	ones := pfOnes(est.n)
	var dev []pfDevPoint
	best := -1
	for m, cs := range counts {
		p := pfDevPoint{Mix: names[m], Counts: cs}
		p.EMinRaw, p.EMinPriced = est.mix(cs).emin(ones)
		if best < 0 || p.EMinPriced < dev[best].EMinPriced {
			best = m
		}
		dev = append(dev, p)
	}
	return dev, best
}

// pfDecide applies the stored rule to the verdicts of every cell.
func pfDecide(problems []pfProblem) (portfolioWins, strategyWins map[string][]string, d pfDecision) {
	portfolioWins, strategyWins = map[string][]string{}, map[string][]string{}
	for _, pr := range problems {
		for _, cell := range pr.Cells {
			for a, arm := range cell.Arms {
				if arm.RatioPricedHi >= 1 {
					continue
				}
				if a == 0 {
					key := fmt.Sprint(cell.Walkers)
					portfolioWins[key] = append(portfolioWins[key], pr.Problem)
				} else {
					strategyWins[arm.Arm] = append(strategyWins[arm.Arm], fmt.Sprintf("%s k=%d", pr.Problem, cell.Walkers))
				}
			}
		}
	}
	d = pfDecision{Portfolio: "delete", Strategies: map[string]string{}}
	for _, won := range portfolioWins {
		if len(won) >= 2 {
			d.Portfolio = "keep"
		}
	}
	for _, s := range pfStrategies[1:] {
		d.Strategies[s] = "delete"
		if len(strategyWins[s]) > 0 {
			d.Strategies[s] = "keep"
		}
	}
	return portfolioWins, strategyWins, d
}

// pfCensored counts the draws at the cap and returns the mean.
func pfCensored(xs []int64, cap int64) (censored int, mean float64) {
	for _, x := range xs {
		if x >= cap {
			censored++
		}
		mean += float64(x)
	}
	return censored, mean / float64(len(xs))
}

// TestPortfolioArtifact recomputes BENCH_portfolio_vs_adaptive.json
// from its stored samples: censored counts, ns/iteration spreads, every
// dev pick, every E[min], ratio, bootstrap CI and verdict, and the
// decision under the stored rule. The full check redoes 4 × 50 000
// joint resamples over 6 walker counts (about 12 s on a 2-vCPU Xeon,
// one problem a core); -short skips the resampling and checks
// everything else, and so does a -race build, where the resampling
// alone takes minutes.
func TestPortfolioArtifact(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_portfolio_vs_adaptive.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art pfArtifact
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	if art.Rule != (pfRule{pfRulePortfolio, pfRuleStrategy, pfCrossGate}) {
		t.Fatalf("stored rule %+v is not the rule this test applies", art.Rule)
	}
	if len(art.Problems) != 4 || len(art.Walkers) != 6 {
		t.Fatalf("artifact covers %d problems × %d walker counts, want 4 × 6", len(art.Problems), len(art.Walkers))
	}
	nDev := art.DevSeeds[1] - art.DevSeeds[0] + 1
	nConfirm := art.ConfirmSeeds[1] - art.ConfirmSeeds[0] + 1
	iters := art.BootstrapIters
	if testing.Short() || raceEnabled {
		iters = 0
	}
	var wg sync.WaitGroup
	got := make([]pfProblem, len(art.Problems))
	for p, pr := range art.Problems {
		if len(pr.Samples) != len(pfStrategies) || len(pr.Cells) != len(art.Walkers) {
			t.Fatalf("%s: %d samples and %d cells", pr.Problem, len(pr.Samples), len(pr.Cells))
		}
		price := make([]float64, len(pr.Samples))
		var dev, confirm [][]int64
		for s, smp := range pr.Samples {
			label := fmt.Sprintf("%s/%s", pr.Problem, smp.Strategy)
			if smp.Strategy != pfStrategies[s] || len(smp.Dev) != nDev || len(smp.Confirm) != nConfirm {
				t.Fatalf("%s: sample %d holds %d dev and %d confirmation draws", label, s, len(smp.Dev), len(smp.Confirm))
			}
			if c, _ := pfCensored(smp.Dev, art.CapIters); c != smp.CensoredDev {
				t.Errorf("%s: censored_dev %d, recomputed %d", label, smp.CensoredDev, c)
			}
			if c, m := pfCensored(smp.Confirm, art.CapIters); c != smp.CensoredConfirm || m != smp.ConfirmMean {
				t.Errorf("%s: censored_confirm %d mean %v, recomputed %d %v", label, smp.CensoredConfirm, smp.ConfirmMean, c, m)
			}
			if sp := pfSpreadOf(smp.NsPerIter.Chunks); !reflect.DeepEqual(sp, smp.NsPerIter) {
				t.Errorf("%s: ns/iteration spread %+v, recomputed %+v", label, smp.NsPerIter, sp)
			}
			price[s] = smp.NsPerIter.Median
			dev, confirm = append(dev, smp.Dev), append(confirm, smp.Confirm)
		}
		// Recompute the dev picks, then confirm the picked arms.
		cells := make([]pfCell, len(pr.Cells))
		for c, stored := range pr.Cells {
			if stored.Walkers != art.Walkers[c] {
				t.Fatalf("%s: cell %d is k=%d, want %d", pr.Problem, c, stored.Walkers, art.Walkers[c])
			}
			var names []string
			var counts [][]int
			for _, d := range stored.Dev {
				if sum(d.Counts) != stored.Walkers {
					t.Errorf("%s k=%d: mix %s counts %v do not sum to k", pr.Problem, stored.Walkers, d.Mix, d.Counts)
				}
				names, counts = append(names, d.Mix), append(counts, d.Counts)
			}
			devPts, best := pfPick(dev, price, names, counts)
			cells[c] = pfCell{Walkers: stored.Walkers, Dev: devPts, Mix: names[best]}
			cells[c].Arms = []pfArm{{Arm: "portfolio", Counts: counts[best]}}
			for s := 1; s < len(pfStrategies); s++ {
				cells[c].Arms = append(cells[c].Arms, pfArm{Arm: pfStrategies[s], Counts: pfAlone(s, stored.Walkers)})
			}
		}
		got[p] = pfProblem{Problem: pr.Problem, Size: pr.Size, Samples: pr.Samples, Cells: cells, CrossCheck: pr.CrossCheck}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pfConfirm(confirm, price, cells, iters, art.BootstrapSeed, art.Confidence)
		}()
	}
	wg.Wait()
	for p, pr := range art.Problems {
		for c, stored := range pr.Cells {
			g := got[p].Cells[c]
			if iters == 0 { // -short or -race: take the stored CIs, recompute the rest
				for a := range g.Arms {
					s := stored.Arms[a]
					g.Arms[a].RatioRawLo, g.Arms[a].RatioRawHi = s.RatioRawLo, s.RatioRawHi
					g.Arms[a].RatioPricedLo, g.Arms[a].RatioPricedHi = s.RatioPricedLo, s.RatioPricedHi
					g.Arms[a].Verdict = pfVerdict(g.Arms[a].Arm, s.RatioPricedLo, s.RatioPricedHi)
				}
			}
			if !reflect.DeepEqual(g, stored) {
				t.Errorf("%s k=%d: stored cell\n %+v\nrecomputed\n %+v", pr.Problem, stored.Walkers, stored, g)
			}
		}
		x := pr.CrossCheck
		for _, cell := range got[p].Cells {
			if cell.Walkers == x.Walkers {
				arm := cell.Arms[0]
				if cell.Mix != x.Mix || arm.RatioRaw != x.OSRatio || arm.RatioRawLo != x.OSRatioLo || arm.RatioRawHi != x.OSRatioHi {
					t.Errorf("%s: cross-check compares %s against %v [%v, %v]; the k=%d cell has %s %v [%v, %v]",
						pr.Problem, x.Mix, x.OSRatio, x.OSRatioLo, x.OSRatioHi, cell.Walkers, cell.Mix, arm.RatioRaw, arm.RatioRawLo, arm.RatioRawHi)
				}
			}
		}
		want := x
		want.AdaptiveCensored, _ = pfCensored(x.AdaptiveWinner, art.CapIters)
		want.MixCensored, _ = pfCensored(x.MixWinner, art.CapIters)
		_, am := pfCensored(x.AdaptiveWinner, art.CapIters)
		_, mm := pfCensored(x.MixWinner, art.CapIters)
		want.Ratio = mm / am
		want.KSD, want.KSP = stats.KS2(x.MixWinner, x.AdaptiveWinner)
		if iters > 0 {
			if want.RatioLo, want.RatioHi, err = stats.PairedRatioCI(x.MixWinner, x.AdaptiveWinner, iters, art.Confidence, art.BootstrapSeed); err != nil {
				t.Fatal(err)
			}
		}
		want.Inside, want.Overlap = pfCrossVerdict(want)
		if !reflect.DeepEqual(want, x) {
			t.Errorf("%s: stored cross-check\n %+v\nrecomputed\n %+v", pr.Problem, x, want)
		}
		if !x.Overlap {
			t.Errorf("%s: the direct CI [%v, %v] misses the order-statistic CI [%v, %v]", pr.Problem, x.RatioLo, x.RatioHi, x.OSRatioLo, x.OSRatioHi)
		}
	}
	pw, sw, d := pfDecide(art.Problems)
	if !reflect.DeepEqual(pw, art.PortfolioWins) || !reflect.DeepEqual(sw, art.StrategyWins) || !reflect.DeepEqual(d, art.Decision) {
		t.Errorf("stored wins %v / %v and decision %+v; recomputed %v / %v and %+v", art.PortfolioWins, art.StrategyWins, art.Decision, pw, sw, d)
	}
}

// pfCrossVerdict reads a cross-check: whether the direct ratio lies in
// the order-statistic CI, and whether the two CIs overlap.
func pfCrossVerdict(x pfCrossCheck) (inside, overlap bool) {
	return x.OSRatioLo <= x.Ratio && x.Ratio <= x.OSRatioHi, x.RatioLo <= x.OSRatioHi && x.OSRatioLo <= x.RatioHi
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// pfSpreadOf summarizes per-chunk values by their median and quartiles
// (linear interpolation between order statistics).
func pfSpreadOf(chunks []float64) pfSpread {
	sorted := append([]float64(nil), chunks...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		h := p * float64(len(sorted)-1)
		lo := int(h)
		if lo+1 >= len(sorted) {
			return sorted[lo]
		}
		return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	return pfSpread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Chunks: chunks}
}
