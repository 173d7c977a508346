// Command benchmark is the repository's benchmark: four fixed-work
// workloads played through POST /v1/solve, seven end-to-end metrics,
// and a per-layer ledger from a separate traced run. BENCHMARK.json at
// the repository root names the workloads, metrics and bounds;
// README.md in this directory says what each is for.
//
//	go run ./benchmark                       every workload, end to end
//	go run ./benchmark -trace                every workload, per layer
//	go run ./benchmark -workload search-fd   one workload
//	go run ./benchmark -compare A B          two -o files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all four)")
		seed         = fs.Uint64("seed", 2012, "workload seed: the order in which each spec's search seeds are played")
		seconds      = fs.Int("seconds", 20, "measuring budget: it buys timed rounds of fixed work (a workload says how many seconds one costs), never a clock")
		trace        = fs.Int("trace", 0, "1 runs the traced round and reports the per-layer metrics instead of the end-to-end ones")
		smoke        = fs.Bool("smoke", false, "one round of lists a twentieth as long (tests)")
		outFile      = fs.String("o", "", "append each workload's full result to this file, one JSON document per line")
		outDir       = fs.String("outdir", "benchmark/out", "directory the traced run writes its spans to")
		compare      = fs.Bool("compare", false, "compare two -o files (arguments: A B) against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{*w}
	}

	hdr := newHeader(*seed)
	fmt.Fprintf(stdout, "benchmark: rev %s, %s, %s, nproc %d, GOMAXPROCS %d (%s), seed %d\n",
		hdr.GitRev, hdr.GoVersion, hdr.CPUModel, hdr.NumCPU, hdr.GOMAXPROCS, hdr.CPUMode, hdr.Seed)

	failed := 0
	var last *result
	for i := range selected {
		w := &selected[i]
		jobs, rounds := w.jobs, max(1, *seconds/w.roundSeconds)
		if *smoke {
			jobs, rounds = w.jobs/20, 1
		}
		res, err := runWorkload(w, hdr, jobs, rounds, *trace != 0, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		if *outFile != "" {
			if err := appendResult(*outFile, res); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		failed += res.Failed
		last = res
	}
	if *workloadName != "" {
		// The driver's line: the last thing on standard output.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d failed operations\n", failed)
		return 1
	}
	return 0
}

// normalizeArgs lets -trace be given bare, as a reader types it, and
// as "--trace 0|1", as the driver passes it.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			a = "-trace=" + v
		}
		out = append(out, a)
	}
	return out
}

// runWorkload is one run of one workload: set-up, then either the
// timed rounds (end-to-end metrics) or one untraced and one traced
// round (per-layer metrics).
func runWorkload(w *workload, hdr header, jobs, rounds int, trace bool, outDir string) (*result, error) {
	r, err := newRunner(w, buildJobs(w, hdr.Seed, jobs), hdr, trace)
	if err != nil {
		return nil, err
	}
	st, c, err := r.setUp()
	if err != nil {
		return nil, err
	}
	if !trace {
		r.measure(c, rounds)
		st.close()
	} else {
		// The traced round is compared with an untraced round of the
		// same process; the end-to-end numbers never come from here.
		plain := r.playRound(c, nil)
		st.close()
		tr := newTracer(4 * len(r.jobs))
		tst, err := buildStack(w, tr)
		if err != nil {
			return nil, err
		}
		tr.reset() // drop the probe job's spans
		tc := newClient(tst.handler)
		rd := r.playRound(tc, tr)
		tst.close()
		if err := r.layerMetrics(tr, tc, rd, plain, int64(100000*jobs/w.jobs)); err != nil {
			return nil, err
		}
		if err := writeSpans(outDir, w.name, tr.spans); err != nil {
			return nil, err
		}
		r.res.Rounds = 1
		r.res.RoundWallS = []float64{rd.wall.Seconds()}
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// header records where and how a result was measured.
type header struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUMode is "real" when every walker of a job can have a core and
	// "oversubscribed" when the host has fewer cores than a job has
	// walkers; efficiency numbers of the two are never comparable.
	CPUMode string `json:"cpu_mode"`
	Seed    uint64 `json:"seed"`
}

// newHeader pins GOMAXPROCS to the two threads a job can keep busy and
// describes the host.
func newHeader(seed uint64) header {
	runtime.GOMAXPROCS(walkersPerJob)
	h := header{
		GitRev: "unknown", GoVersion: runtime.Version(), CPUModel: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUMode: "real",
		Seed: seed,
	}
	if h.NumCPU < walkersPerJob {
		h.CPUMode = "oversubscribed"
	}
	// Outside a git work tree (the driver's checkout) the rev stays
	// unknown.
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// printResult prints every metric of a run by name and unit.
func printResult(w io.Writer, res *result) {
	kind := "end to end"
	if res.Trace {
		kind = "per layer"
	}
	fmt.Fprintf(w, "\n%s (%s): %d jobs a round, %d timed rounds, attempted %d, failed %d\n",
		res.Workload, kind, res.JobsPerRound, res.Rounds, res.Attempted, res.Failed)
	if !res.Trace {
		fmt.Fprintf(w, "  round walls %.3f s; percentiles over %d latencies, %d beyond p95\n",
			res.RoundWallS, res.LatencyN, res.LatencyBeyond)
		am := res.AsMeasured
		fmt.Fprintf(w, "  as measured, the host's interference included: median round %.4f jobs/s, %.4f iters/s; of %d pooled timings (%d beyond p95) p50 %.4f ms, p95 %.4f ms\n",
			am["jobs_per_s"].Value, am["iters_per_s"].Value, res.PooledN, res.PooledBeyond, am["latency_p50_ms"].Value, am["latency_p95_ms"].Value)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
}

// appendResult adds res to path as one line of JSON.
func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
