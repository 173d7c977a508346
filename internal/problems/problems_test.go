package problems

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/rng"
)

// fixtures lists one small instance per benchmark plus the factory to
// build independent copies (the ground-truth oracle needs a second
// instance because encodings cache incremental state).
type fixture struct {
	name string
	make func(t *testing.T) core.Problem
}

func fixtures() []fixture {
	return []fixture{
		{"queens-12", mk(func() (core.Problem, error) { return NewQueens(12) })},
		{"magic-square-5", mk(func() (core.Problem, error) { return NewMagicSquare(5) })},
		{"magic-square-3", mk(func() (core.Problem, error) { return NewMagicSquare(3) })},
		{"magic-square-4", mk(func() (core.Problem, error) { return NewMagicSquare(4) })},
		{"magic-square-9", mk(func() (core.Problem, error) { return NewMagicSquare(9) })},
		{"all-interval-12", mk(func() (core.Problem, error) { return NewAllInterval(12) })},
		{"all-interval-2", mk(func() (core.Problem, error) { return NewAllInterval(2) })},
		{"all-interval-3", mk(func() (core.Problem, error) { return NewAllInterval(3) })},
		{"all-interval-4", mk(func() (core.Problem, error) { return NewAllInterval(4) })},
		{"all-interval-22", mk(func() (core.Problem, error) { return NewAllInterval(22) })},
		{"costas-9", mk(func() (core.Problem, error) { return NewCostas(9) })},
		{"costas-2", mk(func() (core.Problem, error) { return NewCostas(2) })},
		{"costas-3", mk(func() (core.Problem, error) { return NewCostas(3) })},
		{"costas-4", mk(func() (core.Problem, error) { return NewCostas(4) })},
		{"langford-8", mk(func() (core.Problem, error) { return NewLangford(8) })},
		{"partition-16", mk(func() (core.Problem, error) { return NewPartition(16) })},
		{"alpha", mk(func() (core.Problem, error) { return NewAlpha() })},
		{"perfect-square-7", mk(func() (core.Problem, error) { return NewPerfectSquare(7) })},
		{"perfect-square-21", mk(func() (core.Problem, error) { return NewPerfectSquare(21) })},
	}
}

func mk(f func() (core.Problem, error)) func(t *testing.T) core.Problem {
	return func(t *testing.T) core.Problem {
		t.Helper()
		p, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// verifier is the per-problem independent solution check.
type verifier interface{ Verify([]int) bool }

// TestCostIfSwapMatchesGroundTruth cross-validates every encoding's
// incremental CostIfSwap against a from-scratch Cost on the swapped
// configuration, over many random configurations and swap pairs.
func TestCostIfSwapMatchesGroundTruth(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			oracle := fx.make(t)
			r := rng.New(42)
			n := p.Size()
			for trial := 0; trial < 60; trial++ {
				cfg := r.Perm(n)
				cost := p.Cost(cfg)
				i := r.Intn(n)
				j := r.Intn(n - 1)
				if j >= i {
					j++
				}
				got := p.CostIfSwap(cfg, cost, i, j)
				swapped := slices.Clone(cfg)
				swapped[i], swapped[j] = swapped[j], swapped[i]
				want := oracle.Cost(swapped)
				if got != want {
					t.Fatalf("trial %d: CostIfSwap(%v, i=%d, j=%d) = %d, ground truth = %d",
						trial, cfg, i, j, got, want)
				}
				// CostIfSwap must not corrupt cached state: the same
				// query must repeat identically.
				if again := p.CostIfSwap(cfg, cost, i, j); again != got {
					t.Fatalf("trial %d: CostIfSwap is not repeatable: %d then %d", trial, got, again)
				}
			}
		})
	}
}

// TestExecutedSwapKeepsStateConsistent walks a random swap sequence
// through each encoding, applying ExecutedSwap, and checks after every
// step that cached CostOnVariable and the running cost agree with a
// fresh instance.
func TestExecutedSwapKeepsStateConsistent(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			oracle := fx.make(t)
			se := p.(core.PermProblem)
			r := rng.New(7)
			n := p.Size()
			cfg := r.Perm(n)
			cost := p.Cost(cfg)
			for step := 0; step < 40; step++ {
				i := r.Intn(n)
				j := r.Intn(n - 1)
				if j >= i {
					j++
				}
				cost = p.CostIfSwap(cfg, cost, i, j)
				cfg[i], cfg[j] = cfg[j], cfg[i]
				se.ExecutedSwap(cfg, i, j)
				want := oracle.Cost(cfg)
				if cost != want {
					t.Fatalf("step %d: running cost %d diverged from ground truth %d", step, cost, want)
				}
				for v := 0; v < n; v++ {
					if got, want := p.CostOnVariable(cfg, v), oracle.CostOnVariable(cfg, v); got != want {
						t.Fatalf("step %d: CostOnVariable(%d) = %d, fresh instance says %d", step, v, got, want)
					}
				}
			}
		})
	}
}

// TestCostNonNegativeProperty checks costs are never negative across
// random configurations.
func TestCostNonNegativeProperty(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			r := rng.New(11)
			for trial := 0; trial < 50; trial++ {
				cfg := r.Perm(p.Size())
				if c := p.Cost(cfg); c < 0 {
					t.Fatalf("negative cost %d for %v", c, cfg)
				}
			}
		})
	}
}

// TestZeroCostAgreesWithVerify: whenever the engine claims a solution,
// the independent verifier must agree (checked on solved benchmarks in
// TestSolveBenchmarks); here we check the converse on random configs —
// Verify=true implies Cost=0.
func TestZeroCostAgreesWithVerify(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			v, ok := p.(verifier)
			if !ok {
				t.Skip("no Verify")
			}
			r := rng.New(13)
			for trial := 0; trial < 40; trial++ {
				cfg := r.Perm(p.Size())
				if v.Verify(cfg) && p.Cost(cfg) != 0 {
					t.Fatalf("Verify accepted %v but cost = %d", cfg, p.Cost(cfg))
				}
			}
		})
	}
}

// TestSolveBenchmarks runs the full engine on a small instance of every
// benchmark and verifies the solutions independently. This is the
// integration test of engine + encodings.
func TestSolveBenchmarks(t *testing.T) {
	cases := []struct {
		name string
		make func(t *testing.T) core.Problem
	}{
		{"queens", mk(func() (core.Problem, error) { return NewQueens(30) })},
		{"magic-square", mk(func() (core.Problem, error) { return NewMagicSquare(5) })},
		{"all-interval", mk(func() (core.Problem, error) { return NewAllInterval(14) })},
		{"costas", mk(func() (core.Problem, error) { return NewCostas(10) })},
		{"langford", mk(func() (core.Problem, error) { return NewLangford(8) })},
		{"partition", mk(func() (core.Problem, error) { return NewPartition(16) })},
		{"perfect-square-synth", mk(func() (core.Problem, error) { return NewPerfectSquare(7) })},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.make(t)
			opts := core.TunedOptions(p)
			opts.Seed = 2024
			res, err := core.Solve(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("engine failed to solve: %v", res)
			}
			if v, ok := p.(verifier); ok && !v.Verify(res.Solution) {
				t.Fatalf("engine solution rejected by independent verifier: %v", res.Solution)
			}
		})
	}
}

// TestBouwkampOrderTilesPerfectly checks the decoder against the known
// Bouwkamp sequence: the identity permutation over the stored order must
// tile the 112x112 master exactly (cost 0).
func TestBouwkampOrderTilesPerfectly(t *testing.T) {
	p, err := NewPerfectSquare(21)
	if err != nil {
		t.Fatal(err)
	}
	id := perm.Identity(21)
	if c := p.Cost(id); c != 0 {
		t.Fatalf("Bouwkamp order decodes with cost %d, want 0", c)
	}
	if !p.Verify(id) {
		t.Fatal("Verify rejects the Bouwkamp order")
	}
}

// TestMoronOrderTilesPerfectly checks the rectangle decoder against
// Moroń's order-9 squared rectangle: the stored order must tile 33x32
// exactly.
func TestMoronOrderTilesPerfectly(t *testing.T) {
	p, err := NewPerfectSquare(9)
	if err != nil {
		t.Fatal(err)
	}
	id := perm.Identity(9)
	if c := p.Cost(id); c != 0 {
		t.Fatalf("Moron order decodes with cost %d, want 0", c)
	}
	if !p.Verify(id) {
		t.Fatal("Verify rejects the Moron order")
	}
}

func TestPerfectSquareRejectsBadInstances(t *testing.T) {
	if _, err := NewPerfectSquare(5); err == nil {
		t.Fatal("accepted size 5 (not 3k+1, not 21)")
	}
	if _, err := NewPerfectSquareInstance([]int{3, 3}, 5, 5); err == nil {
		t.Fatal("accepted instance with area mismatch")
	}
	if _, err := NewPerfectSquareInstance([]int{6}, 5, 5); err == nil {
		t.Fatal("accepted square larger than the master")
	}
	if _, err := NewPerfectSquareInstance([]int{0, 5}, 5, 5); err == nil {
		t.Fatal("accepted non-positive square size")
	}
	if _, err := NewPerfectSquareInstance([]int{2}, 0, 4); err == nil {
		t.Fatal("accepted non-positive master width")
	}
}

func TestSubdivisionInstancesAreSolvableByConstruction(t *testing.T) {
	for _, n := range []int{4, 7, 10, 13} {
		p, err := NewPerfectSquare(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.Size() != n {
			t.Fatalf("n=%d: got %d squares", n, p.Size())
		}
		area := 0
		for _, s := range p.Sizes() {
			area += s * s
		}
		w, h := p.Master()
		if area != w*h {
			t.Fatalf("n=%d: area %d != master area %d", n, area, w*h)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewQueens(0); err == nil {
		t.Error("queens accepted size 0")
	}
	if _, err := NewMagicSquare(2); err == nil {
		t.Error("magic-square accepted impossible side 2")
	}
	if _, err := NewMagicSquare(0); err == nil {
		t.Error("magic-square accepted side 0")
	}
	if _, err := NewAllInterval(1); err == nil {
		t.Error("all-interval accepted size 1")
	}
	if _, err := NewCostas(0); err == nil {
		t.Error("costas accepted order 0")
	}
	if _, err := NewLangford(5); err == nil {
		t.Error("langford accepted unsolvable n=5 (5 mod 4 == 1)")
	}
	if _, err := NewLangford(2); err == nil {
		t.Error("langford accepted n=2")
	}
	if _, err := NewPartition(12); err == nil {
		t.Error("partition accepted n=12 (not a multiple of 8)")
	}
	if _, err := NewPartition(4); err == nil {
		t.Error("partition accepted n=4")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"all-interval", "alpha", "costas", "langford", "magic-square", "partition", "perfect-square", "queens", "timetable"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range names {
		info, err := Describe(n)
		if err != nil {
			t.Fatalf("Describe(%q): %v", n, err)
		}
		if info.DefaultSize <= 0 || info.PaperSize <= 0 || info.Description == "" {
			t.Fatalf("Describe(%q) incomplete: %+v", n, info)
		}
		if info.MaxSize < info.DefaultSize || info.MaxSize < info.PaperSize {
			t.Fatalf("Describe(%q): MaxSize %d below the default or the paper's size: %+v", n, info.MaxSize, info)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Fatal("Describe accepted unknown name")
	}
	if _, err := New("nope", 5); err == nil {
		t.Fatal("New accepted unknown name")
	}
	p, err := New("queens", 0) // default size
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 100 {
		t.Fatalf("default queens size = %d, want 100", p.Size())
	}
}

func TestFactoryInstancesAreIndependent(t *testing.T) {
	f, err := NewFactory("costas", 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := f()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	cfgA := r.Perm(8)
	cfgB := r.Perm(8)
	costA := a.Cost(cfgA)
	_ = b.Cost(cfgB) // mutates b's cache only
	if again := a.Cost(cfgA); again != costA {
		t.Fatalf("sibling instance state leaked: %d then %d", costA, again)
	}
	if _, err := NewFactory("nope", 1); err == nil {
		t.Fatal("NewFactory accepted unknown name")
	}
	if _, err := NewFactory("langford", 5); err == nil {
		t.Fatal("NewFactory did not validate size eagerly")
	}
}

// TestFactoryHandsOutValidatedInstanceOnce pins the factory contract
// behind "validate by building once, then hand out instances": called
// from many goroutines at once (as multiwalk.Run does) every call gets
// an instance nobody else holds, and a search on the first instance —
// a clone of the model resolving validated, or a fresh construction —
// is the golden trace of a fresh one, for every benchmark.
func TestFactoryHandsOutValidatedInstanceOnce(t *testing.T) {
	blob, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenTrace
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	for _, problem := range Names() {
		t.Run(problem, func(t *testing.T) {
			size := goldenSizes[problem]
			for _, factory := range []struct {
				name string
				make func() (Factory, error)
			}{
				{"NewFactoryParams", func() (Factory, error) { return NewFactoryParams(problem, size, nil) }},
			} {
				f, err := factory.make()
				if err != nil {
					t.Fatal(err)
				}
				first, err := f()
				if err != nil {
					t.Fatal(err)
				}
				want, ok := golden[problem+"/"+core.StrategyAdaptive]
				if !ok {
					t.Fatalf("no golden trace for %s/%s", problem, core.StrategyAdaptive)
				}
				if got := goldenTraceOn(t, first, size, goldenSeed); got != want {
					t.Fatalf("%s: validated instance drifted from the golden trace:\n got %s\nwant %s", factory.name, formatTrace(got), formatTrace(want))
				}

				f, err = factory.make()
				if err != nil {
					t.Fatal(err)
				}
				const callers = 16
				got := make([]core.Problem, callers)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						p, err := f()
						if err != nil {
							t.Error(err)
						}
						got[i] = p
					}(i)
				}
				wg.Wait()
				seen := make(map[core.Problem]bool, callers)
				for i, p := range got {
					if p == nil || seen[p] {
						t.Fatalf("%s: caller %d got an instance another caller holds (or none)", factory.name, i)
					}
					seen[p] = true
				}
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	ms, _ := NewMagicSquare(5)
	if ms.Side() != 5 || ms.Size() != 25 {
		t.Error("magic-square accessors wrong")
	}
	lf, _ := NewLangford(8)
	if lf.Values() != 8 || lf.Size() != 16 {
		t.Error("langford accessors wrong")
	}
	ps, _ := NewPerfectSquare(21)
	if pw, ph := ps.Master(); pw != 112 || ph != 112 || len(ps.Sizes()) != 21 {
		t.Error("perfect-square accessors wrong")
	}
}

func TestAlphaLetters(t *testing.T) {
	a, err := NewAlpha()
	if err != nil {
		t.Fatal(err)
	}
	s := a.Letters(perm.Identity(26))
	if !strings.HasPrefix(s, "a=1 b=2") || !strings.Contains(s, "z=26") {
		t.Fatalf("unexpected Letters output: %q", s)
	}
}

func TestAlphaRejectsBadWords(t *testing.T) {
	if _, err := NewAlphaFromEquations(map[string]int{"bad word": 3}); err == nil {
		t.Fatal("accepted word with space")
	}
	if _, err := NewAlphaFromEquations(map[string]int{"": 3}); err == nil {
		t.Fatal("accepted empty word")
	}
}

// TestSyntheticAlphaSolvable builds a word-sum instance from a known
// assignment, guaranteeing satisfiability, and solves it.
func TestSyntheticAlphaSolvable(t *testing.T) {
	// Ground-truth assignment: letter i has value i+1 reversed. Twenty
	// equations (like the classic instance) keep the constraint graph
	// dense enough for the exhaustive engine to solve in well under a
	// second; a sparser set was measured ~100x slower.
	val := func(r rune) int { return 26 - int(r-'a') }
	words := []string{
		"go", "parallel", "search", "adaptive", "costas", "walk",
		"speedup", "cluster", "bench", "quartz", "fjord", "vex", "my",
		"jukebox", "wavy", "fizz", "hymn", "croquet", "blimp", "dozen",
	}
	eqs := map[string]int{}
	for _, w := range words {
		s := 0
		for _, r := range w {
			s += val(r)
		}
		eqs[w] = s
	}
	a, err := NewAlphaFromEquations(eqs)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.TunedOptions(a)
	opts.Seed = 5
	res, err := core.Solve(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("synthetic alpha unsolved: %v", res)
	}
}
