package problems

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
)

// -update-golden regenerates testdata/golden_traces.json from the
// current engine. Run it deliberately, diff the result, and commit:
// any change means the engine's search trace moved for some
// (problem, strategy, seed), which is exactly what this suite exists
// to catch.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace file from the current engine")

// goldenTrace pins the deterministic outcome of one seeded
// whole-search run: every engine counter plus a hash of the solution
// (when solved). Wall-clock fields are deliberately absent.
type goldenTrace struct {
	Size           int    `json:"size"`
	Solved         bool   `json:"solved"`
	Cost           int    `json:"cost"`
	Iterations     int64  `json:"iterations"`
	Swaps          int64  `json:"swaps"`
	LocalMinima    int64  `json:"local_minima"`
	PlateauEscapes int64  `json:"plateau_escapes"`
	Resets         int64  `json:"resets"`
	Restarts       int    `json:"restarts"`
	SolutionFNV    uint64 `json:"solution_fnv,omitempty"`
	// Finite-domain move counters: omitempty keeps the permutation
	// entries byte-identical to the pre-FD golden file (their assign
	// counts are always 0).
	Assigns int64 `json:"assigns,omitempty"`
	Flips   int64 `json:"flips,omitempty"`
}

// goldenSizes picks a small, valid instance per registered benchmark
// (langford needs n % 4 in {0, 3}, partition n % 8 == 0,
// perfect-square a known instance family).
var goldenSizes = map[string]int{
	"all-interval":   10,
	"alpha":          26,
	"costas":         9,
	"langford":       8,
	"magic-square":   4,
	"partition":      16,
	"perfect-square": 7,
	"queens":         12,
	"timetable":      20,
}

const (
	goldenSeed     = 2012
	goldenMaxIters = 1200
	goldenMaxRuns  = 2
)

// goldenBenchSpecs are the instances the repository benchmark's
// search-perm workload runs (benchmark/workloads.go). goldenSizes
// pins small ones — all-interval 10, and magic-square on an even side,
// where no cell lies on both diagonals — so a move evaluator that is
// wrong only at the benchmark's sizes would pass it; these are pinned
// under goldenBenchSeeds in a table of their own.
var goldenBenchSpecs = []struct {
	problem string
	size    int
}{
	{"all-interval", 22},
	{"magic-square", 9},
	{"costas", 15},
	{"perfect-square", 9},
}

var goldenBenchSeeds = []uint64{1, 2, 3}

func goldenPath() string {
	return filepath.Join("testdata", "golden_traces.json")
}

func goldenBenchPath() string {
	return filepath.Join("testdata", "golden_traces_bench.json")
}

func solutionFNV(sol []int) uint64 {
	if sol == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range sol {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runGoldenCase executes the pinned (problem, strategy) run: tuned
// options, fixed seed, bounded budget, one deterministic trace.
func runGoldenCase(t *testing.T, problem, strategy string) goldenTrace {
	t.Helper()
	size := goldenSizes[problem]
	if size == 0 {
		t.Fatalf("no golden size for %q — add it to goldenSizes", problem)
	}
	p, err := New(problem, size)
	if err != nil {
		t.Fatal(err)
	}
	return goldenTraceOn(t, p, size, strategy, goldenSeed)
}

// goldenTraceOn runs the pinned search on the given instance (of the
// given registry size).
func goldenTraceOn(t *testing.T, p core.Problem, size int, strategy string, seed uint64) goldenTrace {
	t.Helper()
	opts := core.TunedOptions(p)
	opts.Strategy = strategy
	opts.Seed = seed
	opts.MaxIterations = goldenMaxIters
	opts.MaxRuns = goldenMaxRuns
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return goldenTrace{
		Size:           size,
		Solved:         res.Solved,
		Cost:           res.Cost,
		Iterations:     res.Iterations,
		Swaps:          res.Swaps,
		LocalMinima:    res.LocalMinima,
		PlateauEscapes: res.PlateauEscapes,
		Resets:         res.Resets,
		Restarts:       res.Restarts,
		SolutionFNV:    solutionFNV(res.Solution),
		Assigns:        res.Assigns,
		Flips:          res.Flips,
	}
}

// TestGoldenTraces pins seeded whole-search traces for every
// registered strategy across every registered problem, extending
// errvec_test.go's trace-equality idea from one refactor boundary to
// the engine as a whole: any future change to selection, restart
// policy, RNG consumption or cost accounting that silently shifts a
// search trace fails here, loudly, with the drifted counters.
func TestGoldenTraces(t *testing.T) {
	keys := make([]string, 0, len(Names())*len(core.StrategyNames()))
	got := make(map[string]goldenTrace)
	for _, problem := range Names() {
		for _, strategy := range core.StrategyNames() {
			key := problem + "/" + strategy
			keys = append(keys, key)
			parts := [2]string{problem, strategy}
			t.Run(key, func(t *testing.T) {
				got[key] = runGoldenCase(t, parts[0], parts[1])
			})
		}
	}
	checkGoldenTable(t, goldenPath(), keys, got)

	// The benchmark-size table: same record, same budget, three seeds.
	keys, got = nil, make(map[string]goldenTrace)
	for _, spec := range goldenBenchSpecs {
		for _, strategy := range core.StrategyNames() {
			for _, seed := range goldenBenchSeeds {
				key := fmt.Sprintf("%s-%d/%s/seed-%d", spec.problem, spec.size, strategy, seed)
				keys = append(keys, key)
				t.Run(key, func(t *testing.T) {
					p, err := New(spec.problem, spec.size)
					if err != nil {
						t.Fatal(err)
					}
					got[key] = goldenTraceOn(t, p, spec.size, strategy, seed)
				})
			}
		}
	}
	checkGoldenTable(t, goldenBenchPath(), keys, got)
}

// checkGoldenTable compares the traces just run with the table pinned
// in path, or under -update-golden rewrites the file from them.
func checkGoldenTable(t *testing.T, path string, keys []string, got map[string]goldenTrace) {
	t.Helper()
	sort.Strings(keys)

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden traces to %s", len(got), path)
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create it): %v", err)
	}
	var want map[string]goldenTrace
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(keys) {
		t.Errorf("%s pins %d cases, registry yields %d — regenerate with -update-golden", path, len(want), len(keys))
	}
	for _, key := range keys {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden entry (new problem or strategy? regenerate with -update-golden)", key)
			continue
		}
		if g := got[key]; g != w {
			t.Errorf("%s: trace drifted:\n got %s\nwant %s", key, formatTrace(g), formatTrace(w))
		}
	}
}

func formatTrace(tr goldenTrace) string {
	return fmt.Sprintf("{size=%d solved=%v cost=%d iters=%d swaps=%d locmin=%d plateau=%d resets=%d restarts=%d fnv=%#x}",
		tr.Size, tr.Solved, tr.Cost, tr.Iterations, tr.Swaps, tr.LocalMinima,
		tr.PlateauEscapes, tr.Resets, tr.Restarts, tr.SolutionFNV)
}
