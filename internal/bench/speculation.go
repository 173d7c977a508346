package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/problems"
)

// This file measures what speculative re-dispatch buys: the tail of
// the distributed job-latency distribution. A job's latency is the
// latency of its slowest shard (min-order statistics over walker
// completion, DESIGN.md §14), so one straggling worker drags P95/P99
// to its own pace even when every other shard finished long ago. The
// collector stands up an in-process fleet with one injected straggler
// — a reverse proxy that holds every shard dispatch to that worker for
// a fixed delay before forwarding — and runs the same budget-bounded
// job stream twice, with speculation off and on. Results are committed
// as BENCH_tail_latency.json so the tail-latency claim has a pinned
// artifact.

// TailLatency is the measured job-latency distribution of one arm of
// the comparison (speculation off or on) plus the arm's speculation
// counters.
type TailLatency struct {
	// Speculate records whether the coordinator ran with speculative
	// re-dispatch enabled.
	Speculate bool `json:"speculate"`
	// Jobs is the number of timed jobs behind the percentiles.
	Jobs int `json:"jobs"`
	// P50MS/P95MS/P99MS/MaxMS are job-latency percentiles in
	// milliseconds. With a straggler on the primary path and
	// speculation off, P50 already sits near the injected delay; with
	// speculation on the whole distribution collapses toward the
	// detection time plus one shard's work.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// SpeculationsLaunched/SpeculationsWon are the coordinator's
	// counters after the arm: in the off arm both are zero, in the on
	// arm launches should track jobs and wins launches.
	SpeculationsLaunched int64 `json:"speculations_launched"`
	SpeculationsWon      int64 `json:"speculations_won"`
}

// TailLatencyReport is the JSON document committed as
// BENCH_tail_latency.json.
type TailLatencyReport struct {
	// Note records how the report was produced.
	Note string `json:"note"`
	// GoVersion is the toolchain that produced the numbers.
	GoVersion string `json:"go_version"`
	// Benchmark/Size/Walkers/IterBudget describe the job template:
	// every job runs Walkers walkers of Benchmark at Size for exactly
	// IterBudget iterations each (MaxRuns 1, budget chosen so the
	// instance stays unsolved and every shard runs to completion —
	// which puts the straggler's shard on the critical path).
	Benchmark  string `json:"benchmark"`
	Size       int    `json:"size"`
	Walkers    int    `json:"walkers"`
	IterBudget int64  `json:"iter_budget"`
	// StraggleMS is the injected dispatch delay on the straggler
	// worker.
	StraggleMS int64 `json:"straggle_ms"`
	// Baseline is the speculation-off arm, Speculated the
	// speculation-on arm, over the same fleet shape, job template and
	// seed schedule.
	Baseline   TailLatency `json:"baseline"`
	Speculated TailLatency `json:"speculated"`
}

// WriteJSON writes the report to path, indented and newline-terminated
// so it diffs cleanly when committed.
func (r *TailLatencyReport) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// CollectSpeculationDist measures the distributed job-latency
// distribution with and without speculative re-dispatch under an
// injected straggler. The fleet is three workers with ceil(k/2) slots
// each, so a k-walker job lands as two primary shards on the first two
// workers and the third stays free to host backups; worker 0 is the
// straggler (every POST /v1/run to it is held for straggle before
// being forwarded). Jobs are budget-bounded (iterBudget iterations per
// walker, one run) so they complete rather than solve, keeping the
// straggler's shard on the critical path; because walker identity is
// global, the speculated arm's results are bit-for-bit those of the
// baseline arm for the same seed — only the latency changes.
func CollectSpeculationDist(ctx context.Context, w Workload, k, reps int, seed uint64, iterBudget int64, straggle time.Duration) (*TailLatencyReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 2 || reps < 1 {
		return nil, fmt.Errorf("bench: CollectSpeculationDist needs k >= 2 and reps >= 1, got k=%d reps=%d", k, reps)
	}
	if iterBudget < 1 {
		return nil, fmt.Errorf("bench: CollectSpeculationDist needs a positive iteration budget, got %d", iterBudget)
	}
	if straggle <= 0 {
		return nil, fmt.Errorf("bench: CollectSpeculationDist needs a positive straggle delay, got %v", straggle)
	}
	probe, err := problems.New(w.Benchmark, w.Size)
	if err != nil {
		return nil, err
	}
	engine := core.TunedOptions(probe)
	engine.MaxIterations = iterBudget
	engine.MaxRuns = 1
	report := &TailLatencyReport{
		Note:       fmt.Sprintf("go run ./cmd/experiments tail-latency -straggle %v -reps %d BENCH_tail_latency.json", straggle, reps),
		GoVersion:  runtime.Version(),
		Benchmark:  w.Benchmark,
		Size:       w.Size,
		Walkers:    k,
		IterBudget: iterBudget,
		StraggleMS: straggle.Milliseconds(),
	}
	if report.Baseline, err = speculationArm(ctx, w, k, reps, seed, engine, straggle, false); err != nil {
		return nil, fmt.Errorf("bench: speculation-off arm: %w", err)
	}
	if report.Speculated, err = speculationArm(ctx, w, k, reps, seed, engine, straggle, true); err != nil {
		return nil, fmt.Errorf("bench: speculation-on arm: %w", err)
	}
	return report, nil
}

// speculationArm runs one arm of the comparison and reports its
// latency distribution and counters. Every rep gets a fresh fleet: a
// speculated-around straggler ends the job marked suspect (its severed
// loser connection looks like a transport loss, which is the fleet
// doing its job), and reusing it would hand later reps a straggler-free
// topology — the arm must measure speculation, not suspicion.
func speculationArm(ctx context.Context, w Workload, k, reps int, seed uint64, engine core.Options, straggle time.Duration, speculate bool) (TailLatency, error) {
	cfg := dist.CoordinatorConfig{
		BoardSync:         2 * time.Millisecond,
		HeartbeatInterval: -1,
	}
	if speculate {
		cfg.Speculate = true
		cfg.SpeculateAfter = maxDuration(straggle/10, 20*time.Millisecond)
		cfg.SpeculateInterval = maxDuration(straggle/20, 10*time.Millisecond)
		cfg.ProgressInterval = 10 * time.Millisecond
	}
	lats := make([]float64, 0, reps)
	arm := TailLatency{Speculate: speculate, Jobs: reps}
	for rep := 0; rep < reps; rep++ {
		coord, cleanup, err := stragglerFleet(3, (k+1)/2, 0, straggle, cfg)
		if err != nil {
			return TailLatency{}, err
		}
		t0 := time.Now()
		res, err := coord.Run(ctx, dist.JobSpec{
			Problem: w.Benchmark,
			Size:    w.Size,
			Walkers: k,
			Seed:    seed + uint64(rep)*7919,
			Engine:  engine,
		})
		lat := float64(time.Since(t0).Microseconds()) / 1000
		m := coord.BackendMetrics()
		cleanup()
		if err != nil {
			return TailLatency{}, err
		}
		if res.Truncated {
			return TailLatency{}, fmt.Errorf("bench: straggler rep %d truncated", rep)
		}
		lats = append(lats, lat)
		arm.SpeculationsLaunched += m["speculations_launched"]
		arm.SpeculationsWon += m["speculations_won"]
	}
	sort.Float64s(lats)
	pct := func(p float64) float64 { return lats[int(p*float64(len(lats)-1))] }
	arm.P50MS, arm.P95MS, arm.P99MS, arm.MaxMS = pct(0.50), pct(0.95), pct(0.99), lats[len(lats)-1]
	return arm, nil
}

// stragglerFleet stands up n in-process dist workers on real listeners
// — worker straggler fronted by a holdRuns proxy with the given delay
// — and a coordinator over them with cfg's policy fields. The returned
// cleanup tears everything down in reverse order.
func stragglerFleet(n, slotsEach, straggler int, delay time.Duration, cfg dist.CoordinatorConfig) (*dist.Coordinator, func(), error) {
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		closers = append(closers, func() { srv.Close() })
		return "http://" + ln.Addr().String(), nil
	}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		wk := dist.NewWorker(dist.WorkerConfig{Slots: slotsEach})
		closers = append(closers, func() { wk.Close() })
		base, err := serve(wk.Handler())
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		if i == straggler {
			target, err := url.Parse(base)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			if base, err = serve(holdRuns(target, delay)); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		urls = append(urls, base)
	}
	cfg.Workers = urls
	coord, err := dist.NewCoordinator(cfg)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	closers = append(closers, coord.Close)
	return coord, cleanup, nil
}

// holdRuns fronts a worker with a reverse proxy that holds every shard
// dispatch (POST /v1/run) for delay before forwarding. That is the
// straggler shape speculation targets: the worker looks healthy —
// health probes, cancels and progress traffic pass straight through —
// but every shard placed on it starts late, and until it starts it
// reports no progress, which is exactly what the coordinator's
// detector sees from a stalled process.
func holdRuns(target *url.URL, delay time.Duration) http.Handler {
	px := httputil.NewSingleHostReverseProxy(target)
	px.ErrorHandler = func(w http.ResponseWriter, _ *http.Request, _ error) {
		// The coordinator severing a cancelled loser mid-forward is
		// the normal path here, not worth logging.
		w.WriteHeader(http.StatusBadGateway)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/run" {
			// Drain the body before holding: the net/http server only
			// watches for client disconnects once the request body is
			// consumed, and a cancelled loser's dispatch must abort when
			// the coordinator severs it, not sleep out the full hold.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
		}
		px.ServeHTTP(w, r)
	})
}

// maxDuration returns the larger of two durations.
func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
