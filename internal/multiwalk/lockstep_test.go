package multiwalk

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/stats"
)

// runLockstep runs the dependent scheme deterministically: the k
// walkers take turns, in index order, each advancing Period iterations
// per turn. A walker exchanges with the board (boardMonitor: publish,
// snapshot, maybe adopt or yield) at the end of each of its turns and
// then hands the turn to the next walker still running, so publish and
// adopt happen only at round boundaries and every board read sees the
// same history on any machine. A walker that solves posts cost 0 at
// once; the others yield at their next boundary. The winner is the
// walker with the fewest iterations to solution (virtualWinner), and
// walker identity (seeds) is RunVirtual's, so the two are comparable
// seed for seed.
func runLockstep(factory Factory, engine core.Options, seed uint64, k int, x ExchangeOptions) (Result, error) {
	engine.CheckEvery = int(x.Period) // every poll is a round boundary
	seeds := walkerSeeds(seed, k)
	board := NewLocalBoard()
	turn := make([]chan struct{}, k)
	for w := range turn {
		turn[w] = make(chan struct{}, 1)
	}
	// active is read and written only by the walker holding the turn.
	active := make([]bool, k)
	for w := range active {
		active[w] = true
	}
	pass := func(w int) {
		for i := 1; i <= k; i++ {
			if j := (w + i) % k; active[j] {
				turn[j] <- struct{}{}
				return
			}
		}
	}

	stats := make([]WalkerStat, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	turn[0] <- struct{}{}
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-turn[w]
			defer func() {
				active[w] = false
				pass(w)
			}()
			p, err := factory()
			if err != nil {
				errs[w] = err
				return
			}
			stats[w] = WalkerStat{Walker: w}
			eo := engine
			eo.Seed = seeds[w]
			exchange := boardMonitor(board, &stats[w], x, p, seeds[w])
			eo.Monitor = func(iter int64, cost int, cfg []int) core.Directive {
				d := exchange(iter, cost, cfg)
				if !d.Stop {
					pass(w)
					<-turn[w]
				}
				return d
			}
			res, err := core.Solve(context.Background(), p, eo)
			if err != nil {
				errs[w] = err
				return
			}
			if res.Solved {
				board.Publish(0, res.Solution)
			}
			stats[w].Result = res
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	res := aggregate(stats, virtualWinner)
	res.Completed = k
	return res, nil
}

// TestLockstepDeterministic pins the lockstep runner: two runs agree
// walker for walker, and with adoption switched off (an adopt factor
// no cost can exceed) the walkers follow their independent
// trajectories, so the winner is RunVirtual's to the iteration.
func TestLockstepDeterministic(t *testing.T) {
	factory := costasFactory(t, 10)
	engine := tunedEngine(t, "costas", 10)
	x := ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 1.2}
	for seed := uint64(1); seed <= 5; seed++ {
		a, err := runLockstep(factory, engine, seed, 6, x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runLockstep(factory, engine, seed, 6, x)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Solved || a.Winner != b.Winner || a.WinnerIterations != b.WinnerIterations || a.Adoptions != b.Adoptions {
			t.Fatalf("seed %d: lockstep runs differ: %+v vs %+v", seed, a, b)
		}
		for w := range a.Walkers {
			if a.Walkers[w].Result.Iterations != b.Walkers[w].Result.Iterations {
				t.Fatalf("seed %d walker %d: %d vs %d iterations", seed, w, a.Walkers[w].Result.Iterations, b.Walkers[w].Result.Iterations)
			}
		}

		noAdopt := x
		noAdopt.AdoptFactor = math.MaxFloat64
		dep, err := runLockstep(factory, engine, seed, 6, noAdopt)
		if err != nil {
			t.Fatal(err)
		}
		ind, err := RunVirtual(context.Background(), factory, Options{Walkers: 6, Seed: seed, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if dep.Adoptions != 0 || dep.Winner != ind.Winner || dep.WinnerIterations != ind.WinnerIterations {
			t.Fatalf("seed %d: no-adoption lockstep winner %d@%d (adoptions %d), RunVirtual %d@%d",
				seed, dep.Winner, dep.WinnerIterations, dep.Adoptions, ind.Winner, ind.WinnerIterations)
		}
	}
}

// -update-golden rewrites testdata/golden_traces_dependent.json from
// the current scheme. Any change there means a dependent run's search
// moved: the engine, the board policy or the walker seeds.
var updateGolden = flag.Bool("update-golden", false, "rewrite the dependent golden trace file from the current scheme")

// dependentTrace pins one lockstep dependent run.
type dependentTrace struct {
	Winner           int     `json:"winner"`
	WinnerIterations int64   `json:"winner_iterations"`
	TotalIterations  int64   `json:"total_iterations"`
	Adoptions        int64   `json:"adoptions"`
	Yielded          int     `json:"yielded"`
	WalkerIterations []int64 `json:"walker_iterations"`
}

// TestGoldenDependentTraces pins lockstep dependent runs of the paper's
// four problems at the tiny scale: two walker counts, a short and a
// long exchange period, one seed.
func TestGoldenDependentTraces(t *testing.T) {
	path := filepath.Join("testdata", "golden_traces_dependent.json")
	got := map[string]dependentTrace{}
	for _, pr := range []struct {
		name string
		size int
	}{{"all-interval", 12}, {"perfect-square", 9}, {"magic-square", 6}, {"costas", 10}} {
		factory, err := problems.NewFactory(pr.name, pr.size)
		if err != nil {
			t.Fatal(err)
		}
		engine := tunedEngine(t, pr.name, pr.size)
		for _, k := range []int{2, 8} {
			for _, x := range []ExchangeOptions{
				{Enabled: true, Period: 16, AdoptFactor: 1.5},
				{Enabled: true, Period: 256, AdoptFactor: 2},
			} {
				res, err := runLockstep(factory, engine, 2012, k, x)
				if err != nil {
					t.Fatal(err)
				}
				tr := dependentTrace{Winner: res.Winner, WinnerIterations: res.WinnerIterations, TotalIterations: res.TotalIterations, Adoptions: res.Adoptions}
				for _, ws := range res.Walkers {
					tr.WalkerIterations = append(tr.WalkerIterations, ws.Result.Iterations)
					if ws.Yielded {
						tr.Yielded++
					}
				}
				got[fmt.Sprintf("%s-%d/k%d/p%d-a%g", pr.name, pr.size, k, x.Period, x.AdoptFactor)] = tr
			}
		}
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create it): %v", err)
	}
	var want map[string]dependentTrace
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cases, the test runs %d", path, len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: dependent trace drifted:\n got %+v\nwant %+v", key, g, w)
		}
	}
}

var dependentArtifact = flag.String("dependent-artifact", "", "measure the dependent scheme against RunVirtual and write the result to this file")

// The measurement's fixed design: the paper's four problems at the
// small scale, the walker counts, the tuning grid and disjoint seed
// ranges for choosing a setting and for confirming it. The bootstrap
// takes enough resamples that its own Monte Carlo error in a CI bound
// (about 0.001 in the ratio) cannot flip a verdict.
var (
	lockstepProblems = []struct {
		name string
		size int
	}{{"all-interval", 20}, {"perfect-square", 9}, {"magic-square", 10}, {"costas", 14}}
	lockstepWalkers = []int{2, 4, 8, 16, 64}
	lockstepPeriods = []int64{16, 64, 256, 1024, 4096}
	lockstepAdopts  = []float64{1.2, 1.5, 2, 3}
)

const (
	devSeedBase     = 1_000_000
	devSeeds        = 100
	confirmSeedBase = 2_000_000
	confirmSeeds    = 500
	bootstrapIters  = 50_000
	bootstrapSeed   = 2012
	confidence      = 0.95
)

type sideSummary struct {
	N           int     `json:"n"`
	Mean        float64 `json:"mean"`
	SD          float64 `json:"sd"`
	Q1          float64 `json:"q1"`
	Median      float64 `json:"median"`
	Q3          float64 `json:"q3"`
	WinnerIters []int64 `json:"winner_iters"`
}

type devPoint struct {
	Period      int64   `json:"period_iters"`
	AdoptFactor float64 `json:"adopt_factor"`
	N           int     `json:"n"`
	Mean        float64 `json:"mean"`
	SD          float64 `json:"sd"`
}

type lockstepCell struct {
	Problem       string      `json:"problem"`
	Size          int         `json:"size"`
	Walkers       int         `json:"walkers"`
	Period        int64       `json:"period_iters"`
	AdoptFactor   float64     `json:"adopt_factor"`
	Dev           []devPoint  `json:"dev"`
	Independent   sideSummary `json:"independent"`
	Dependent     sideSummary `json:"dependent"`
	MeanAdoptions float64     `json:"dependent_mean_adoptions"`
	Ratio         float64     `json:"ratio_of_means"`
	RatioLo       float64     `json:"ratio_ci_lo"`
	RatioHi       float64     `json:"ratio_ci_hi"`
	KSD           float64     `json:"ks_d"`
	KSP           float64     `json:"ks_p"`
	Verdict       string      `json:"verdict"`
}

type lockstepArtifact struct {
	Note           string              `json:"note"`
	Rev            string              `json:"rev"`
	GoVersion      string              `json:"go_version"`
	CPU            string              `json:"cpu"`
	NProc          int                 `json:"nproc"`
	GOMAXPROCS     int                 `json:"gomaxprocs"`
	Scale          string              `json:"scale"`
	Method         []string            `json:"method"`
	DevSeeds       [2]int              `json:"dev_seeds"`
	ConfirmSeeds   [2]int              `json:"confirm_seeds"`
	BootstrapIters int                 `json:"bootstrap_iters"`
	Confidence     float64             `json:"confidence"`
	Periods        []int64             `json:"grid_period_iters"`
	Adopts         []float64           `json:"grid_adopt_factor"`
	Cells          []lockstepCell      `json:"cells"`
	Rule           string              `json:"rule"`
	WinsByWalkers  map[string][]string `json:"dependent_wins_by_walkers"`
	Decision       string              `json:"decision"`
}

// TestDependentVsIndependent writes BENCH_dependent_vs_independent.json
// when -dependent-artifact is set:
//
//	go test ./internal/multiwalk -run TestDependentVsIndependent -timeout 0 \
//	    -dependent-artifact ../../BENCH_dependent_vs_independent.json
//
// Every iteration count in the file is an exact integer of
// (problem, walkers, seed, setting): rerunning reproduces it on any box.
func TestDependentVsIndependent(t *testing.T) {
	if *dependentArtifact == "" {
		t.Skip("set -dependent-artifact FILE to run the measurement")
	}
	art := lockstepArtifact{
		Note:           "go test ./internal/multiwalk -run TestDependentVsIndependent -timeout 0 -dependent-artifact FILE",
		Rev:            gitRev(),
		GoVersion:      runtime.Version(),
		CPU:            cpuModel(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Scale:          "small",
		DevSeeds:       [2]int{devSeedBase, devSeedBase + devSeeds - 1},
		ConfirmSeeds:   [2]int{confirmSeedBase, confirmSeedBase + confirmSeeds - 1},
		BootstrapIters: bootstrapIters,
		Confidence:     confidence,
		Periods:        lockstepPeriods,
		Adopts:         lockstepAdopts,
		Method: []string{
			"independent: multiwalk.RunVirtual, k walkers, master seed s; winner_iters = fewest iterations to solution",
			"dependent: the elite-board scheme (boardMonitor) run in lockstep: walkers advance period_iters each in index order and exchange only at their round boundaries; same master seed s, so the same walker seeds",
			"per cell, period_iters and adopt_factor minimise the dependent mean on the dev seeds; the confirmation seeds are disjoint",
			"ratio_of_means = mean(dependent) / mean(independent); its CI is a paired percentile bootstrap over seeds",
			"ks_d / ks_p: two-sample Kolmogorov-Smirnov on the winner_iters distributions (asymptotic p)",
		},
		Rule:          "the scheme stays iff, at some walker count, dependent beats independent beyond the CI (ratio_ci_hi < 1) on at least two of the four problems",
		WinsByWalkers: map[string][]string{},
	}
	for _, pr := range lockstepProblems {
		factory, err := problems.NewFactory(pr.name, pr.size)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		engine := core.TunedOptions(probe)
		for _, k := range lockstepWalkers {
			cell := lockstepCell{Problem: pr.name, Size: pr.size, Walkers: k}
			best := math.Inf(1)
			for _, period := range lockstepPeriods {
				for _, adopt := range lockstepAdopts {
					x := ExchangeOptions{Enabled: true, Period: period, AdoptFactor: adopt}
					iters, _ := sweep(t, devSeeds, devSeedBase, func(s uint64) (Result, error) {
						return runLockstep(factory, engine, s, k, x)
					})
					m, sd := meanSD(iters)
					cell.Dev = append(cell.Dev, devPoint{Period: period, AdoptFactor: adopt, N: devSeeds, Mean: m, SD: sd})
					if m < best {
						best, cell.Period, cell.AdoptFactor = m, period, adopt
					}
				}
			}
			x := ExchangeOptions{Enabled: true, Period: cell.Period, AdoptFactor: cell.AdoptFactor}
			dep, adoptions := sweep(t, confirmSeeds, confirmSeedBase, func(s uint64) (Result, error) {
				return runLockstep(factory, engine, s, k, x)
			})
			ind, _ := sweep(t, confirmSeeds, confirmSeedBase, func(s uint64) (Result, error) {
				return RunVirtual(context.Background(), factory, Options{Walkers: k, Seed: s, Engine: engine})
			})
			cell.Dependent, cell.Independent = summarize(dep), summarize(ind)
			cell.MeanAdoptions = float64(adoptions) / float64(confirmSeeds)
			cell.Ratio = cell.Dependent.Mean / cell.Independent.Mean
			if cell.RatioLo, cell.RatioHi, err = stats.PairedRatioCI(dep, ind, bootstrapIters, confidence, bootstrapSeed); err != nil {
				t.Fatal(err)
			}
			cell.KSD, cell.KSP = stats.KS2(dep, ind)
			cell.Verdict = lockstepVerdict(cell.RatioLo, cell.RatioHi)
			if cell.Verdict == "dependent better" {
				key := fmt.Sprint(k)
				art.WinsByWalkers[key] = append(art.WinsByWalkers[key], pr.name)
			}
			t.Logf("%s-%d k=%d P=%d A=%g: dep %.0f ind %.0f ratio %.3f [%.3f, %.3f] KS %.3f p=%.3g",
				pr.name, pr.size, k, cell.Period, cell.AdoptFactor, cell.Dependent.Mean, cell.Independent.Mean,
				cell.Ratio, cell.RatioLo, cell.RatioHi, cell.KSD, cell.KSP)
			art.Cells = append(art.Cells, cell)
		}
	}
	art.Decision = lockstepDecision(art.WinsByWalkers)
	out, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*dependentArtifact, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("decision: %s (wins by walker count: %v)", art.Decision, art.WinsByWalkers)
}

// lockstepVerdict reads a cell's paired ratio CI.
func lockstepVerdict(lo, hi float64) string {
	switch {
	case hi < 1:
		return "dependent better"
	case lo > 1:
		return "independent better"
	}
	return "level"
}

// lockstepDecision applies the artifact's rule to the dependent wins
// by walker count.
func lockstepDecision(wins map[string][]string) string {
	for _, won := range wins {
		if len(won) >= 2 {
			return "keep"
		}
	}
	return "delete"
}

// TestDependentArtifactRecomputes recomputes every cell of the
// committed BENCH_dependent_vs_independent.json from its stored
// winner_iters with the shared referee (stats.PairedRatioCI, stats.KS2)
// and requires the stored statistics, verdicts and decision exactly.
// The full check redoes 20 cells of 50 000 resamples (about 2.5 s on a
// 2-vCPU Xeon); -short bootstraps the first cell only.
func TestDependentArtifactRecomputes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_dependent_vs_independent.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art lockstepArtifact
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) != len(lockstepProblems)*len(lockstepWalkers) {
		t.Fatalf("artifact has %d cells, want %d", len(art.Cells), len(lockstepProblems)*len(lockstepWalkers))
	}
	wins := map[string][]string{}
	for i, c := range art.Cells {
		dep, ind := c.Dependent.WinnerIters, c.Independent.WinnerIters
		label := fmt.Sprintf("%s-%d k=%d", c.Problem, c.Size, c.Walkers)
		if !reflect.DeepEqual(summarize(dep), c.Dependent) || !reflect.DeepEqual(summarize(ind), c.Independent) {
			t.Errorf("%s: stored summaries do not match the stored winner_iters", label)
		}
		if r := c.Dependent.Mean / c.Independent.Mean; r != c.Ratio {
			t.Errorf("%s: ratio_of_means %v, recomputed %v", label, c.Ratio, r)
		}
		if d, p := stats.KS2(dep, ind); d != c.KSD || p != c.KSP {
			t.Errorf("%s: KS (%v, %v), recomputed (%v, %v)", label, c.KSD, c.KSP, d, p)
		}
		lo, hi := c.RatioLo, c.RatioHi
		if i == 0 || !testing.Short() {
			if lo, hi, err = stats.PairedRatioCI(dep, ind, art.BootstrapIters, art.Confidence, bootstrapSeed); err != nil {
				t.Fatal(err)
			}
			if lo != c.RatioLo || hi != c.RatioHi {
				t.Errorf("%s: CI [%v, %v], recomputed [%v, %v]", label, c.RatioLo, c.RatioHi, lo, hi)
			}
		}
		if v := lockstepVerdict(lo, hi); v != c.Verdict {
			t.Errorf("%s: verdict %q, recomputed %q", label, c.Verdict, v)
		}
		if c.Verdict == "dependent better" {
			wins[fmt.Sprint(c.Walkers)] = append(wins[fmt.Sprint(c.Walkers)], c.Problem)
		}
	}
	if !reflect.DeepEqual(wins, art.WinsByWalkers) {
		t.Errorf("dependent wins %v, recomputed %v", art.WinsByWalkers, wins)
	}
	if d := lockstepDecision(wins); d != art.Decision {
		t.Errorf("decision %q, recomputed %q", art.Decision, d)
	}
}

// sweep runs one job per seed base, base+1, ..., base+n-1 on
// GOMAXPROCS goroutines and returns the winner iterations in seed
// order and the summed adoptions. Every job must solve.
func sweep(t *testing.T, n int, base uint64, job func(uint64) (Result, error)) ([]int64, int64) {
	t.Helper()
	iters := make([]int64, n)
	adoptions := make([]int64, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := job(base + uint64(i))
				if err == nil && !res.Solved {
					err = fmt.Errorf("seed %d unsolved", base+uint64(i))
				}
				iters[i], adoptions[i], errs[i] = res.WinnerIterations, res.Adoptions, err
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	var total int64
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		total += adoptions[i]
	}
	return iters, total
}

func meanSD(xs []int64) (mean, sd float64) {
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := float64(x) - mean
		sd += d * d
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

func summarize(xs []int64) sideSummary {
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) float64 { // linear interpolation between order statistics
		h := p * float64(len(sorted)-1)
		lo := int(h)
		if lo+1 >= len(sorted) {
			return float64(sorted[lo])
		}
		return float64(sorted[lo]) + (h-float64(lo))*float64(sorted[lo+1]-sorted[lo])
	}
	m, sd := meanSD(xs)
	return sideSummary{N: len(xs), Mean: m, SD: sd, Q1: q(0.25), Median: q(0.5), Q3: q(0.75), WinnerIters: xs}
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
