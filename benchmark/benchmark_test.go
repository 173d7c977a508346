package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/service"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	// 0..100: every percentile is its own rank.
	var ramp []float64
	for i := 100; i >= 0; i-- {
		ramp = append(ramp, float64(i))
	}
	if got := quantile(ramp, 0.95); math.Abs(got-95) > 1e-9 {
		t.Errorf("p95 of 0..100 = %v, want 95", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// The median over rounds ignores one slow round.
	if got := median([]float64{3.5, 3.4, 9.9, 3.6, 3.5}); got != 3.5 {
		t.Errorf("median over rounds = %v, want 3.5", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	ramp := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(ramp); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([3, 4, 8], n=4) is [3, 4, 8].
	if got := quartileSpread([]float64{4, 8, 3}); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("spread of 3, 4, 8 = %v, want 1.25", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{{600, 0.95, 30}, {500, 0.95, 25}, {15, 0.95, 1}, {101, 0.5, 50}, {0, 0.95, 0}} {
		if got := samplesBeyond(tc.n, tc.q); got != tc.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 180}}, 60},
		{"overlap counts once", []span{{Start: 110, End: 160}, {Start: 140, End: 190}}, 20},
		{"nested child adds nothing", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"outside the parent", []span{{Start: 10, End: 90}, {Start: 210, End: 250}}, 100},
		{"unsorted", []span{{Start: 150, End: 180}, {Start: 110, End: 120}}, 60},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestJobListDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		n := w.jobs
		a, b := buildJobs(w, 7, n), buildJobs(w, 7, n)
		other := buildJobs(w, 8, n)
		same, sameAsOther := true, true
		seeds := func(jobs []job) map[uint64]int {
			m := map[uint64]int{}
			for _, j := range jobs {
				m[j.seed]++
			}
			return m
		}
		for k := range a {
			same = same && bytes.Equal(a[k].body, b[k].body)
			sameAsOther = sameAsOther && bytes.Equal(a[k].body, other[k].body)
			if a[k].spec != w.pattern[k%len(w.pattern)] || a[k].spec != other[k].spec {
				t.Fatalf("%s: job %d does not follow the spec pattern", w.name, k)
			}
		}
		if !same {
			t.Errorf("%s: the same seed gave different bodies", w.name)
		}
		if sameAsOther {
			t.Errorf("%s: another seed gave the same bodies", w.name)
		}
		// Another seed plays the same search seeds in another order.
		sa, so := seeds(a), seeds(other)
		if len(sa) != n {
			t.Errorf("%s: %d distinct search seeds in %d jobs", w.name, len(sa), n)
		}
		for s := range sa {
			if so[s] != 1 {
				t.Errorf("%s: search seed %d missing under another -seed", w.name, s)
			}
		}
		var body struct {
			service.Request
			Wait bool `json:"wait"`
		}
		if err := json.Unmarshal(a[0].body, &body); err != nil {
			t.Fatal(err)
		}
		if !body.Wait || body.Walkers != walkersPerJob || body.Seed != a[0].seed || body.TimeoutMS != 60000 || body.Problem != w.specs[a[0].spec].Problem {
			t.Errorf("%s: body %s does not say what the job is", w.name, a[0].body)
		}
	}
}

// TestReferenceWalker checks what set-up leaves behind for the solo
// passes: every job's reference is the one of its two walkers that
// solves in fewer iterations alone, whichever of them won the warm-up.
func TestReferenceWalker(t *testing.T) {
	w := findWorkload("small-local")
	r, err := newRunner(w, buildJobs(w, 3, 60), newHeader(3), false)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := r.setUp()
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for i := range r.jobs {
		var alone [walkersPerJob]int64
		for w := range alone {
			wr, ok := r.replay(i, w, 0)
			if !ok {
				t.Fatalf("job %d: walker %d does not replay: %v", i, w, r.res.Problems)
			}
			alone[w] = wr.Iterations
		}
		want := 0
		if alone[1] < alone[0] {
			want = 1
		}
		if r.ref[i] != want || r.solo[i] <= 0 {
			t.Errorf("job %d: walkers need %v iterations alone, reference is %d with solo time %v", i, alone, r.ref[i], r.solo[i])
		}
	}
	if r.res.Failed != 0 {
		t.Errorf("set-up counted %d failures: %v", r.res.Failed, r.res.Problems)
	}
}

// fakeBackend answers RunJob with a fixed result and records what the
// scheduler's optional interfaces were handed.
type fakeBackend struct {
	res      multiwalk.Result
	notified func()
	closed   bool
}

func (f *fakeBackend) Name() string { return "fake" }
func (f *fakeBackend) Slots() int   { return 7 }
func (f *fakeBackend) Close()       { f.closed = true }
func (f *fakeBackend) RunJob(context.Context, string, int, map[string]int, problems.Factory, multiwalk.Options) (multiwalk.Result, error) {
	return f.res, context.Canceled
}
func (f *fakeBackend) NotifyCapacity(fn func())         { f.notified = fn }
func (f *fakeBackend) BackendMetrics() map[string]int64 { return map[string]int64{"x": 1} }

func TestTracedBackendPassesThrough(t *testing.T) {
	inner := &fakeBackend{res: multiwalk.Result{Solved: true, Winner: 1, WinnerIterations: 42}}
	tr := newTracer(4)
	tr.beginJob(3)
	var b service.Backend = &tracedBackend{Backend: inner, tr: tr}

	res, err := b.RunJob(context.Background(), "costas", 9, nil, nil, multiwalk.Options{})
	if err != context.Canceled || !res.Solved || res.Winner != 1 || res.WinnerIterations != 42 {
		t.Errorf("RunJob returned (%+v, %v), not what the wrapped backend returned", res, err)
	}
	if b.Name() != "fake" || b.Slots() != 7 {
		t.Errorf("Name/Slots = %q/%d, want fake/7", b.Name(), b.Slots())
	}
	called := false
	b.(service.CapacityNotifier).NotifyCapacity(func() { called = true })
	if inner.notified == nil {
		t.Fatal("NotifyCapacity did not reach the wrapped backend")
	}
	inner.notified()
	if !called {
		t.Error("the capacity callback is not the one the scheduler registered")
	}
	if got := b.(service.MetricsProvider).BackendMetrics(); got["x"] != 1 {
		t.Errorf("BackendMetrics = %v, want the wrapped backend's", got)
	}
	b.Close()
	if !inner.closed {
		t.Error("Close did not reach the wrapped backend")
	}
	// A backend without the optional interfaces must not make the
	// decorator panic.
	plain := &tracedBackend{Backend: localBackend{slots: 2}, tr: tr}
	plain.NotifyCapacity(func() {})
	if plain.BackendMetrics() != nil {
		t.Error("a backend without metrics reported some")
	}

	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want a client and a backend span", len(tr.spans))
	}
	s := tr.spans[1]
	if s.Name != spanBackend || s.Job != 3 || s.Parent != tr.spans[0].ID || !s.Solved || s.End < s.Start {
		t.Errorf("backend span = %+v", s)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"-trace":                               "-trace=1",
		"--trace 0 --seed 3":                   "-trace=0 --seed 3",
		"--workload x --trace 1":               "--workload x -trace=1",
		"-trace -smoke":                        "-trace=1 -smoke",
		"--workload x --seed 1 --seconds 20":   "--workload x --seed 1 --seconds 20",
		"--seed 1 --seconds 20 --trace 1 -o f": "--seed 1 --seconds 20 -trace=1 -o f",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, which the driver
// reads, and the code, which does the measuring, from drifting apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestCompareUnresolved: two sets whose medians agree but whose runs
// spread wider than the bound are not called unchanged.
func TestCompareUnresolved(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wide.jsonl")
	var lines []byte
	for _, v := range []float64{100, 55, 145, 100, 90} {
		b, err := json.Marshal(result{Workload: "small-local", Metrics: map[string]metric{"jobs_per_s": {v, "1/s"}}})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := compareFiles("../BENCHMARK.json", path, path, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0: no pair moved\n%s%s", code, stdout.String(), stderr.String())
	}
	if strings.Count(stdout.String(), "unresolved") != 2 { // the pair and the summary line
		t.Errorf("want the one pair marked unresolved:\n%s", stdout.String())
	}
}

// TestSmoke drives the whole benchmark, end to end and traced, on lists
// a twentieth as long, the way the driver does, and checks that every
// metric BENCHMARK.json names comes out, in its unit, with no failed
// operation.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	for _, w := range workloads {
		if testing.Short() && strings.HasPrefix(w.name, "search-") {
			// Minutes under the race detector, which is where -short is
			// used; the other two drive the same code on smaller jobs.
			continue
		}
		for trace, defs := range map[string][]metricDef{"0": bf.EndToEnd, "1": bf.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "5", "--seconds", "20", "--trace", trace, "-smoke", "-o", out, "-outdir", dir}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < w.jobs/20 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(line.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := line.Metrics[def.Name]
				if !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %s", w.name, trace, def.Name, m, ok, def.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, def.Name, m.Value)
				}
			}
			if trace == "1" {
				if share := line.Metrics["trace_parts_share"].Value; math.Abs(share-1) > 0.03 {
					t.Errorf("%s: layer parts add up to %.3f of latency, want within 3%%", w.name, share)
				}
				if _, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}

	// A file agrees with itself; a file with one metric moved does not.
	var stdout, stderr bytes.Buffer
	if code := compareFiles("../BENCHMARK.json", out, out, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, "moved.jsonl")
	var shifted []byte
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var res result
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatal(err)
		}
		if m, ok := res.Metrics["jobs_per_s"]; ok && res.Workload == "small-local" {
			m.Value *= 0.5
			res.Metrics["jobs_per_s"] = m
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		shifted = append(append(shifted, b...), '\n')
	}
	if err := os.WriteFile(moved, shifted, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := compareFiles("../BENCHMARK.json", out, moved, &stdout, &stderr); code != 1 {
		t.Errorf("comparing with a file half as fast: exit %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "OUTSIDE (worse)") || strings.Count(stdout.String(), "OUTSIDE") != 1 {
		t.Errorf("want exactly the moved pair marked:\n%s", stdout.String())
	}
}
