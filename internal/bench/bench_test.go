package bench

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/problems"
)

func TestParseScale(t *testing.T) {
	cases := []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"tiny", ScaleTiny, true},
		{"small", ScaleSmall, true},
		{"", ScaleSmall, true},
		{"paper", ScalePaper, true},
		{"huge", 0, false},
	}
	for _, c := range cases {
		got, err := ParseScale(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseScale(%q) accepted", c.in)
		}
	}
	if ScaleTiny.String() != "tiny" || ScaleSmall.String() != "small" || ScalePaper.String() != "paper" {
		t.Error("Scale.String() wrong")
	}
	if Scale(42).String() == "" {
		t.Error("unknown scale should still stringify")
	}
}

func TestPaperWorkloadsCoverTheFourBenchmarks(t *testing.T) {
	for _, scale := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		ws := PaperWorkloads(scale)
		for _, name := range []string{"all-interval", "perfect-square", "magic-square", "costas"} {
			w, ok := ws[name]
			if !ok {
				t.Fatalf("scale %v: missing %s", scale, name)
			}
			if w.Benchmark != name || w.Size <= 0 || w.Runs <= 0 {
				t.Fatalf("scale %v: malformed workload %+v", scale, w)
			}
		}
	}
}

func TestCollectValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Collect(ctx, Workload{"costas", 8, 1}, 1); err == nil {
		t.Error("Runs=1 accepted")
	}
	if _, err := Collect(ctx, Workload{"bogus", 8, 5}, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCollectProducesUsableDistribution(t *testing.T) {
	d, err := Collect(context.Background(), Workload{"costas", 9, 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Iters.N() != 30 || d.Seconds.N() != 30 {
		t.Fatalf("sample sizes: %d iters, %d seconds", d.Iters.N(), d.Seconds.N())
	}
	if d.Iters.Mean() <= 0 {
		t.Fatal("zero mean iterations")
	}
	if d.ItersPerSecond <= 0 {
		t.Fatal("no calibration")
	}
	sp, err := d.Iters.Speedup(4)
	if err != nil || sp < 1 {
		t.Fatalf("speedup(4) = %v, %v", sp, err)
	}
}

func TestCollectDeterministicIterations(t *testing.T) {
	a, err := Collect(context.Background(), Workload{"costas", 9, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(context.Background(), Workload{"costas", 9, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iters.Mean() != b.Iters.Mean() || a.Iters.Max() != b.Iters.Max() {
		t.Fatal("iteration distributions differ across identical collections")
	}
}

func TestCollectVirtualSpeedup(t *testing.T) {
	w := Workload{"costas", 9, 0}
	mean1, err := CollectVirtualSpeedup(context.Background(), w, 1, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	mean8, err := CollectVirtualSpeedup(context.Background(), w, 8, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mean8 > mean1 {
		t.Fatalf("8 walkers mean winner %v > single walker %v", mean8, mean1)
	}
}

// TestTinySuiteEndToEnd runs the whole pipeline at tiny scale: collect
// all four paper benchmarks, generate every figure and table, render
// them. This is the integration test of stats + cluster + problems +
// core + multiwalk through the harness.
func TestTinySuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny suite takes a few seconds; skipped in -short")
	}
	suite, err := NewSuite(context.Background(), ScaleTiny, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Dists) != 4 {
		t.Fatalf("expected 4 distributions, got %d", len(suite.Dists))
	}

	f1, series1, err := suite.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 3*len(CoreCounts) {
		t.Fatalf("fig1 rows = %d, want %d", len(f1.Rows), 3*len(CoreCounts))
	}
	if len(series1) != 3 {
		t.Fatalf("fig1 series = %d", len(series1))
	}

	f2, _, err := suite.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) != 3*len(CoreCounts) {
		t.Fatalf("fig2 rows = %d", len(f2.Rows))
	}

	f3, err := suite.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) != len(CostasCoreCounts) {
		t.Fatalf("fig3 rows = %d", len(f3.Rows))
	}

	sum, err := suite.SummaryTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) < 5 {
		t.Fatalf("summary rows = %d", len(sum.Rows))
	}

	times, err := suite.TimesTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(times.Rows) == 0 {
		t.Fatal("empty times table")
	}

	dist, err := suite.DistributionTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Rows) != 4 {
		t.Fatalf("distrib rows = %d", len(dist.Rows))
	}

	var buf bytes.Buffer
	for _, tbl := range []*Table{f1, f2, f3, sum, times, dist} {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"fig1", "fig2", "fig3", "summary", "times", "distrib", "cores"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
	if err := AsciiChart(&buf, "chart", CoreCounts, series1, 10); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") || !strings.Contains(out, "note: a note") {
		t.Fatalf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,bb\n1,2\n") {
		t.Fatalf("csv output: %q", buf.String())
	}
}

func TestCSVEscapesCommas(t *testing.T) {
	tbl := &Table{Header: []string{"x,y"}, Rows: [][]string{{"a,b"}}}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "a,b") {
		t.Fatalf("comma not escaped: %q", buf.String())
	}
}

func TestAblationKnobsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short")
	}
	tbl, err := AblationKnobs(context.Background(), Workload{"costas", 10, 0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("expected 8 variants, got %d", len(tbl.Rows))
	}
}

func TestAblationCommSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short")
	}
	tbl, err := AblationComm(context.Background(), Workload{"costas", 10, 0}, []int{2}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(tbl.Rows))
	}
}

func TestExtendedWorkloadsWellFormed(t *testing.T) {
	ws := ExtendedWorkloads()
	if len(ws) != 4 {
		t.Fatalf("expected 4 extended workloads, got %d", len(ws))
	}
	for _, w := range ws {
		if w.Size <= 0 || w.Runs < 2 {
			t.Fatalf("malformed workload %+v", w)
		}
	}
}

func TestExtendedTableTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("extended collection in -short")
	}
	// Shrink the run counts for test speed by collecting directly.
	tbl := &Table{Header: []string{"x"}}
	_ = tbl
	d, err := Collect(context.Background(), Workload{"queens", 64, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Iters.N() != 20 {
		t.Fatalf("collected %d", d.Iters.N())
	}
}

// TestCollectRecyclesItsInstance: Collect hands each run's instance
// back to the factory once its search has returned, so the next run
// searches on it. Fifty costas-12 runs then allocate less than ten
// instances' bytes, where taking a fresh instance a run allocated
// fifty (about 160 KB).
func TestCollectRecyclesItsInstance(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of what it is handed")
	}
	w := Workload{"costas", 12, 50}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	instance := allocated(func() {
		if _, err := problems.New(w.Benchmark, w.Size); err != nil {
			t.Fatal(err)
		}
	})
	collect := func() {
		if _, err := Collect(context.Background(), w, 1); err != nil {
			t.Fatal(err)
		}
	}
	collect() // the spec's model and the engine pool, built once a process
	if got := allocated(collect); got > 10*instance {
		t.Errorf("%d runs allocated %d B; one instance is %d B, so the runs built about %d", w.Runs, got, instance, got/instance)
	}
}
