// Command serve runs the solve service: an HTTP JSON API over the
// admission-controlled multi-walk job scheduler (internal/service).
//
// Usage:
//
//	serve -addr :8080 -slots 8 -queue 256 -default-timeout 30s -ttl 10m
//	serve -addr :8080 -workers http://10.0.0.7:9101,http://10.0.0.8:9101
//	serve -addr :8080 -fleet
//	serve -addr :8080 -fleet -tenants batch=1:8,interactive=3
//
// With -workers, jobs are not executed in-process: the scheduler runs
// on a distributed backend (internal/dist) that shards each job's
// walkers over the given cmd/worker fleet, with per-worker slot
// accounting and cross-worker first-solution cancellation. The pool
// size becomes the fleet's total slot capacity (-slots is ignored).
// Dependent jobs ({"exchange": {"enabled": true}}) cooperate across
// workers through a coordinator-hosted elite board; -board-addr,
// -board-advertise and -board-sync tune where it listens, how workers
// reach it and how often their caches reconcile; -board-sync is the
// only setting of that period, which each run request carries to its
// worker (see DESIGN.md §10).
//
// With -fleet, the worker set is dynamic instead of (or in addition
// to) the static -workers list: workers enroll themselves through
// /v1/fleet/register (cmd/worker -coordinator), heartbeat to stay
// healthy, and leave gracefully via deregister. The coordinator probes
// silent workers on -fleet-heartbeat, health-gates dispatch, and
// re-runs shards lost to a dead worker on the survivors — walker
// identity is global, so recovered runs are bit-for-bit what the lost
// worker would have produced — up to -recover-attempts rounds. The
// scheduler's admission pool resizes live as workers join and leave
// (see DESIGN.md §13).
//
// With -speculate, the coordinator also routes around *slow* workers:
// shards report progress, a detector flags any shard lagging more than
// -speculate-threshold behind the job's median, and the lagging range
// is re-dispatched on a free healthy worker — whichever copy finishes
// first wins, the loser is cancelled and its duplicate result dropped.
// Walker identity is global, so both copies are bit-for-bit identical
// and speculation trades spare slots for tail latency with no effect
// on results (see DESIGN.md §14).
//
// -tenants assigns weighted-fair shares and slot quotas per tenant
// (requests carry {"tenant": ..., "priority": ...}); unlisted tenants
// get weight 1 and no cap.
//
// Endpoints:
//
//	POST /v1/solve              submit a job ({"wait": true} for sync)
//	GET  /v1/jobs/{id}          job status / result (?wait=5s long-polls)
//	POST /v1/jobs/{id}/cancel   cancel a job
//	GET  /v1/problems           registered benchmarks and strategies
//	POST /v1/fleet/register     worker self-registration (with -fleet)
//	POST /v1/fleet/heartbeat    worker liveness push (with -fleet)
//	POST /v1/fleet/deregister   graceful worker leave (with -fleet)
//	GET  /v1/fleet              fleet membership table (with -fleet)
//	GET  /healthz               liveness + pool headroom
//	GET  /metrics               scheduler counters (JSON)
//	GET  /debug/vars            process-wide expvar (memstats etc.)
//
// An async job (no "wait" in the POST) is awaited with GET
// /v1/jobs/{id}?wait=<duration>: the request blocks until the job is
// terminal or the wait — capped at 10 s — runs out, and answers the job
// record either way, so a client asks again while the state is not
// terminal. Every hop, this one included, speaks HTTP/JSON only (see
// DESIGN.md §11).
//
// With -calibration FILE, the server loads a runtime-calibration store
// (seed it offline with `experiments -calibrate FILE`), enabling
// requests that say {"autosize": {"target_p95": "500ms"}} instead of a
// fixed walker count: admission fits the problem's calibrated runtime
// distribution and picks the smallest walker count predicted to meet
// the target — or the marginal-speedup knee when no target is given.
// Solved jobs feed their iteration counts back into the store, which
// is saved on shutdown (see DESIGN.md §15).
//
// With -telemetry FILE, a background sampler appends FTDC-style
// schema-delta-encoded scheduler metrics (and, under -workers, board
// traffic counters) to FILE every -telemetry-interval; decode offline
// with `experiments -ftdc-decode FILE`.
//
// With -pprof ADDR, net/http/pprof is served on ADDR — a listener apart
// from -addr, so profiles can stay on loopback — until the server
// drains: `serve -pprof 127.0.0.1:6060` under examples/loadgen, then
// `go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=20`.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener drains,
// then the scheduler cancels queued and running jobs and waits for
// every walker goroutine to exit.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/calibrate"
	"repro/internal/dist"
	"repro/internal/profiling"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		slots          = flag.Int("slots", 0, "walker-slot pool size (0 = GOMAXPROCS)")
		queueDepth     = flag.Int("queue", 0, "admission queue depth (0 = 256)")
		defaultTimeout = flag.Duration("default-timeout", 0, "per-job deadline when the request sets none (0 = 30s)")
		maxTimeout     = flag.Duration("max-timeout", 0, "cap on request-supplied deadlines (0 = 5m)")
		ttl            = flag.Duration("ttl", 0, "finished-job retention (0 = 10m)")
		workers        = flag.String("workers", "", "comma-separated worker base URLs; empty runs jobs in-process")
		fleet          = flag.Bool("fleet", false, "accept dynamic worker registration on /v1/fleet/* (workers join and leave at runtime; may combine with -workers for a static seed)")
		fleetHeartbeat = flag.Duration("fleet-heartbeat", 0, "fleet health-monitor probe period for silent workers (0 = 2s)")
		recoverRounds  = flag.Int("recover-attempts", 0, "rounds of lost-shard re-execution on surviving workers before a job is truncated (0 = 2, negative disables recovery)")
		tenants        = flag.String("tenants", "", "per-tenant admission policy as name=weight[:maxslots],... (e.g. batch=1:8,interactive=3); unlisted tenants get weight 1, no cap")
		boardAddr      = flag.String("board-addr", "", "exchange-board listen address for distributed dependent runs (empty = 127.0.0.1:0; the server starts lazily on the first exchange job)")
		boardAdvertise = flag.String("board-advertise", "", "base URL workers use to reach the exchange board (empty = derived from the board listener; set it when workers are on other hosts)")
		boardSync      = flag.Duration("board-sync", 0, "worker board-cache sync period for dependent runs, sent in each run request (0 = 50ms)")
		speculate      = flag.Bool("speculate", false, "re-dispatch straggling shards speculatively on free healthy workers and keep whichever copy finishes first (needs a distributed backend)")
		speculateThr   = flag.Float64("speculate-threshold", 0, "straggler threshold: a shard speculates when its per-walker progress x threshold < the job median (0 = 2, must be > 1)")
		telemetryPath  = flag.String("telemetry", "", "append FTDC-style telemetry frames to this file (empty = off)")
		telemetryEvery = flag.Duration("telemetry-interval", time.Second, "telemetry sampling period")
		calibration    = flag.String("calibration", "", "runtime-calibration store path: loaded at startup (missing file = empty store), fed by solved jobs, saved on shutdown; enables {\"autosize\": ...} requests (seed offline with `experiments -calibrate`)")
		pprofAddr      = flag.String("pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty = off; e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		bound, stopPprof, err := profiling.Serve(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer stopPprof()
		log.Printf("serve: pprof on http://%s/debug/pprof/", bound)
	}

	tenantPolicies, err := parseTenants(*tenants)
	if err != nil {
		return err
	}

	var backend service.Backend
	var coord *dist.Coordinator
	if *workers != "" || *fleet {
		var workerURLs []string
		if *workers != "" {
			workerURLs = strings.Split(*workers, ",")
		}
		coord, err = dist.NewCoordinator(dist.CoordinatorConfig{
			Workers:            workerURLs,
			Dynamic:            *fleet,
			HeartbeatInterval:  *fleetHeartbeat,
			RecoverAttempts:    *recoverRounds,
			BoardAddr:          *boardAddr,
			BoardAdvertise:     *boardAdvertise,
			BoardSync:          *boardSync,
			Speculate:          *speculate,
			SpeculateThreshold: *speculateThr,
		})
		if err != nil {
			return err
		}
		if *speculate {
			log.Printf("serve: straggler speculation on (threshold %v)", *speculateThr)
		}
		for _, w := range coord.Workers() {
			log.Printf("serve: enrolled worker %s (%d slots)", w.URL, w.Slots)
		}
		if *fleet {
			log.Printf("serve: dynamic fleet registration open on /v1/fleet/*")
		}
		backend = coord
	}

	var calStore *calibrate.Store
	if *calibration != "" {
		calStore, err = calibrate.Load(*calibration)
		if err != nil {
			return err
		}
		log.Printf("serve: calibration store %s loaded (%d keys); auto-sizing enabled", *calibration, len(calStore.Keys()))
	}

	sched := service.New(service.Config{
		Slots:          *slots,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		ResultTTL:      *ttl,
		Backend:        backend,
		Tenants:        tenantPolicies,
		Calibration:    calStore,
	})
	expvar.Publish("scheduler", expvar.Func(func() any { return sched.Stats() }))

	if *telemetryPath != "" {
		f, err := os.Create(*telemetryPath)
		if err != nil {
			sched.Close()
			return fmt.Errorf("telemetry: %w", err)
		}
		defer f.Close()
		stopTelem := startTelemetry(f, *telemetryEvery, sched, coord)
		defer stopTelem()
		log.Printf("serve: telemetry -> %s every %v", *telemetryPath, *telemetryEvery)
	}

	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(sched))
	mux.Handle("GET /debug/vars", expvar.Handler())
	if coord != nil && *fleet {
		// Specific patterns take precedence over the "/" catch-all, so
		// the fleet endpoints shadow the service handler here only.
		fh := coord.FleetHandler()
		mux.Handle("/v1/fleet", fh)
		mux.Handle("/v1/fleet/", fh)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// saveCalibration persists what live jobs taught the store; called
	// after the scheduler drains so the last solves are included.
	saveCalibration := func() {
		if calStore == nil {
			return
		}
		if err := calStore.Save(*calibration); err != nil {
			log.Printf("serve: saving calibration store: %v", err)
			return
		}
		log.Printf("serve: calibration store saved to %s (%d keys)", *calibration, len(calStore.Keys()))
	}

	errc := make(chan error, 1)
	go func() {
		cfg := sched.Config()
		log.Printf("serve: listening on %s (backend=%s slots=%d queue=%d default-timeout=%v ttl=%v)",
			*addr, cfg.Backend.Name(), cfg.Slots, cfg.QueueDepth, cfg.DefaultTimeout, cfg.ResultTTL)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		sched.Close()
		saveCalibration()
		return err
	case sig := <-stop:
		log.Printf("serve: %v — shutting down", sig)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("serve: listener shutdown: %v", err)
	}
	sched.Close()
	saveCalibration()
	log.Printf("serve: drained cleanly")
	return nil
}

// parseTenants parses the -tenants flag: a comma-separated list of
// name=weight or name=weight:maxslots entries.
func parseTenants(spec string) (map[string]service.TenantPolicy, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]service.TenantPolicy)
	for _, entry := range strings.Split(spec, ",") {
		name, policy, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: entry %q is not name=weight[:maxslots]", entry)
		}
		weightStr, maxStr, capped := strings.Cut(policy, ":")
		weight, err := strconv.Atoi(weightStr)
		if err != nil || weight < 1 {
			return nil, fmt.Errorf("-tenants: %s: weight %q is not a positive integer", name, weightStr)
		}
		pol := service.TenantPolicy{Weight: weight}
		if capped {
			maxSlots, err := strconv.Atoi(maxStr)
			if err != nil || maxSlots < 1 {
				return nil, fmt.Errorf("-tenants: %s: maxslots %q is not a positive integer", name, maxStr)
			}
			pol.MaxSlots = maxSlots
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-tenants: duplicate tenant %q", name)
		}
		out[name] = pol
	}
	return out, nil
}

// startTelemetry spawns the FTDC-style sampler: one schema-delta
// encoded sample of the scheduler's counters (plus the coordinator's
// board traffic, when distributed) per period. Names are sorted so
// the schema stays stable and samples delta-compress to a few bytes
// when the server idles.
func startTelemetry(f *os.File, every time.Duration, sched *service.Scheduler, coord *dist.Coordinator) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	rec := telemetry.NewRecorder(f)
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := func() {
		st := sched.Stats()
		metrics := []telemetry.Metric{
			{Name: "adoptions_total", Value: st.Adoptions},
			{Name: "iterations_total", Value: st.Iterations},
			{Name: "jobs_running", Value: st.JobsRunning},
			{Name: "jobs_submitted", Value: st.JobsSubmitted},
			{Name: "queue_depth", Value: int64(st.QueueDepth)},
			{Name: "slots_busy", Value: int64(st.SlotsBusy)},
			{Name: "yielded_total", Value: st.Yielded},
		}
		if coord != nil {
			rx, tx := coord.BoardTraffic()
			metrics = append(metrics,
				telemetry.Metric{Name: "board_http_syncs", Value: coord.BoardHTTPSyncs()},
				telemetry.Metric{Name: "board_rx_bytes", Value: rx},
				telemetry.Metric{Name: "board_tx_bytes", Value: tx},
			)
			// Fleet gauges and counters come from the coordinator's fixed
			// metric set, so the FTDC schema stays stable across samples.
			for name, v := range coord.BackendMetrics() {
				metrics = append(metrics, telemetry.Metric{Name: name, Value: v})
			}
		}
		sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
		if err := rec.Record(time.Now(), metrics); err != nil {
			log.Printf("serve: telemetry: %v", err)
		}
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sample() // final sample so short runs still record
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
