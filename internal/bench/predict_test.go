package bench

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/calibrate"
)

func TestSeedCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sequential searches")
	}
	st := calibrate.NewStore()
	w := Workload{Benchmark: "costas", Size: 8, Runs: 12}
	d, err := SeedCalibration(context.Background(), st, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Resolve(calibrate.Key{Problem: "costas", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 12 || res.Sample.N() != 12 {
		t.Fatalf("resolved %d samples, want 12", res.Samples)
	}
	// The store's rate is an observation-weighted mean, rate·n/n, which
	// may round one ulp away from the rate it was given.
	if math.Abs(res.ItersPerSec-d.ItersPerSecond) > 1e-12*d.ItersPerSecond {
		t.Fatalf("rate %v not carried from the collection's %v", res.ItersPerSec, d.ItersPerSecond)
	}
	if res.Sample.Mean() != d.Iters.Mean() {
		t.Fatalf("store mean %v != collected mean %v", res.Sample.Mean(), d.Iters.Mean())
	}
	// A second seeding appends rather than replaces.
	if _, err := SeedCalibration(context.Background(), st, w, 6); err != nil {
		t.Fatal(err)
	}
	res, err = st.Resolve(calibrate.Key{Problem: "costas", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 24 {
		t.Fatalf("after re-seeding: %d samples, want 24", res.Samples)
	}
}

func TestCollectPredictReportTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sequential and multi-walk searches")
	}
	report, err := CollectPredictReport(context.Background(), ScaleTiny, []string{"costas"}, []int{1, 2, 4}, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Problems) != 1 {
		t.Fatalf("%d problems, want 1", len(report.Problems))
	}
	e := report.Problems[0]
	if e.Benchmark != "costas" || len(e.Points) != 3 {
		t.Fatalf("entry %+v", e)
	}
	p1 := e.Points[0]
	if p1.Walkers != 1 || p1.Predicted != 1 || p1.Measured != 1 || !p1.Within {
		t.Fatalf("k=1 point must be exactly 1/1/within: %+v", p1)
	}
	for _, pt := range e.Points[1:] {
		if pt.Predicted <= 1 || pt.Measured <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
		if pt.Lo > pt.Predicted || pt.Hi < pt.Predicted {
			t.Fatalf("band [%v, %v] excludes its own point prediction %v", pt.Lo, pt.Hi, pt.Predicted)
		}
		if pt.MeasureSE <= 0 {
			t.Fatalf("k=%d has no measurement-noise estimate", pt.Walkers)
		}
	}
	// Speedup predictions must grow with k (min-of-k is monotone).
	if e.Points[2].Predicted <= e.Points[1].Predicted {
		t.Fatalf("predicted speedup not monotone: %v then %v", e.Points[1].Predicted, e.Points[2].Predicted)
	}
	if !strings.Contains(report.Note, "experiments predict-accuracy") {
		t.Fatalf("note %q lacks the regeneration command", report.Note)
	}

	// Round-trips through the committed-artifact JSON form.
	path := filepath.Join(t.TempDir(), "pred.json")
	if err := report.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPredictReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Problems) != 1 || back.Problems[0].Points[2].Predicted != e.Points[2].Predicted {
		t.Fatalf("round trip mangled the report: %+v", back)
	}
	var sb strings.Builder
	if err := back.RenderTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "costas") {
		t.Fatalf("rendered table lacks the benchmark:\n%s", sb.String())
	}
}

func TestCollectPredictReportValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := CollectPredictReport(ctx, ScaleTiny, []string{"costas"}, []int{1}, 1, 1); err == nil {
		t.Fatal("reps=1 accepted")
	}
	if _, err := CollectPredictReport(ctx, ScaleTiny, []string{"sudoku"}, []int{1}, 5, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
