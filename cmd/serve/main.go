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
// size becomes the fleet's total slot capacity, so -slots is a usage
// error there. Dependent jobs ({"exchange": {"enabled": true}})
// cooperate across workers: every -board-sync the coordinator relays
// the job's best configuration to each shard and reads theirs back, on
// the same client and connections as its run calls, so serve opens no
// listener for it (see DESIGN.md §10).
//
// A flag the chosen backend would ignore is a usage error, not a silent
// no-op: -fleet-heartbeat, -recover-attempts, -board-sync, -speculate
// and -speculate-threshold need -workers or -fleet, -speculate-threshold
// needs -speculate, and -telemetry-interval needs -telemetry.
//
// With -fleet, the worker set is dynamic instead of (or in addition
// to) the static -workers list: workers enroll themselves through
// /v1/fleet/register (cmd/worker -coordinator), register again every
// -heartbeat to stay healthy (a known worker is refreshed without a
// probe, so a restarted coordinator re-learns its fleet within one
// period), and leave gracefully via deregister. The coordinator probes
// silent workers on -fleet-heartbeat, health-gates dispatch, and
// re-runs shards lost to a dead worker on the survivors — walker
// identity is global, so recovered runs are bit-for-bit what the lost
// worker would have produced — up to -recover-attempts rounds. The
// scheduler's admission pool resizes live as workers join and leave
// (see DESIGN.md §13).
//
// With -speculate, the coordinator also routes around *slow* workers:
// a detector reads each shard's progress from its worker (GET
// /v1/runs/{id}; serve opens no listener for it), flags any shard lagging
// more than -speculate-threshold behind the job's median, and the
// lagging range is re-dispatched on a free healthy worker — whichever
// copy finishes first wins, the loser is cancelled and its duplicate
// result dropped.
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
//	GET  /v1/problems           registered problems, with their default sizes
//	POST /v1/fleet/register     worker registration and liveness (with -fleet)
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
// (seed it offline with `experiments calibrate FILE`), enabling
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
// with `experiments ftdc-decode FILE`.
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
	"io"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// config is one parsed invocation.
type config struct {
	addr, workers, tenants                    string
	telemetryPath, calibration, pprofAddr     string
	slots, queueDepth, recoverRounds          int
	defaultTimeout, maxTimeout, ttl           time.Duration
	fleetHeartbeat, boardSync, telemetryEvery time.Duration
	fleet, speculate                          bool
	speculateThr                              float64
}

// distributedFlags configure the coordinator, which exists only under
// -workers or -fleet.
var distributedFlags = []string{"fleet-heartbeat", "recover-attempts", "board-sync", "speculate", "speculate-threshold"}

// parse reads args into a config and rejects flags the chosen backend
// would ignore, before anything is started.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.slots, "slots", 0, "in-process walker-slot pool size (0 = GOMAXPROCS; under -workers or -fleet the pool is the fleet's capacity)")
	fs.IntVar(&c.queueDepth, "queue", 0, "admission queue depth (0 = 256)")
	fs.DurationVar(&c.defaultTimeout, "default-timeout", 0, "per-job deadline when the request sets none (0 = 30s)")
	fs.DurationVar(&c.maxTimeout, "max-timeout", 0, "cap on request-supplied deadlines (0 = 5m)")
	fs.DurationVar(&c.ttl, "ttl", 0, "finished-job retention (0 = 10m)")
	fs.StringVar(&c.workers, "workers", "", "comma-separated worker base URLs; empty runs jobs in-process")
	fs.BoolVar(&c.fleet, "fleet", false, "accept dynamic worker registration on /v1/fleet/* (workers join and leave at runtime; may combine with -workers for a static seed)")
	fs.DurationVar(&c.fleetHeartbeat, "fleet-heartbeat", 0, "fleet health-monitor probe period for silent workers (0 = 2s)")
	fs.IntVar(&c.recoverRounds, "recover-attempts", 0, "rounds of lost-shard re-execution on surviving workers before a job is truncated (0 = 2, negative disables recovery)")
	fs.StringVar(&c.tenants, "tenants", "", "per-tenant admission policy as name=weight[:maxslots],... (e.g. batch=1:8,interactive=3); unlisted tenants get weight 1, no cap")
	fs.DurationVar(&c.boardSync, "board-sync", 0, "relay period of dependent jobs: how often the coordinator relays the best configuration between a job's shards (0 = 50ms)")
	fs.BoolVar(&c.speculate, "speculate", false, "re-dispatch straggling shards speculatively on free healthy workers and keep whichever copy finishes first")
	fs.Float64Var(&c.speculateThr, "speculate-threshold", 0, "straggler threshold: a shard speculates when its per-walker progress x threshold < the job median (0 = 2, must be > 1)")
	fs.StringVar(&c.telemetryPath, "telemetry", "", "append FTDC-style telemetry frames to this file (empty = off)")
	fs.DurationVar(&c.telemetryEvery, "telemetry-interval", time.Second, "telemetry sampling period")
	fs.StringVar(&c.calibration, "calibration", "", "runtime-calibration store path: loaded at startup (missing file = empty store), fed by solved jobs, saved on shutdown; enables {\"autosize\": ...} requests (seed it offline with experiments calibrate FILE)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty = off; e.g. 127.0.0.1:6060)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	distributed := c.workers != "" || c.fleet
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, name := range distributedFlags {
		if set[name] && !distributed {
			return nil, fmt.Errorf("-%s configures the distributed backend and needs -workers or -fleet", name)
		}
	}
	switch {
	case set["slots"] && distributed:
		return nil, errors.New("-slots sizes the in-process pool; under -workers or -fleet the pool is the fleet's slot capacity")
	case set["speculate-threshold"] && !c.speculate:
		return nil, errors.New("-speculate-threshold needs -speculate")
	case set["telemetry-interval"] && c.telemetryPath == "":
		return nil, errors.New("-telemetry-interval needs -telemetry")
	case c.fleetHeartbeat < 0:
		// A negative interval would turn the coordinator's liveness
		// monitor off, a setting for its tests, not for a fleet.
		return nil, errors.New("-fleet-heartbeat must be >= 0 (0 = 2s)")
	}
	return c, nil
}

// run is the whole command: it parses args, serves until ctx is
// cancelled (SIGINT/SIGTERM in main) or the listener fails, and drains.
// It prints nothing on stdout; logs and flag usage go to stderr.
func run(ctx context.Context, args []string, _, stderr io.Writer) error {
	c, err := parse(args, stderr)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "", log.LstdFlags)

	if c.pprofAddr != "" {
		bound, stopPprof, err := profiling.Serve(c.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer stopPprof()
		logger.Printf("serve: pprof on http://%s/debug/pprof/", bound)
	}

	tenantPolicies, err := parseTenants(c.tenants)
	if err != nil {
		return err
	}

	var backend service.Backend
	var coord *dist.Coordinator
	if c.workers != "" || c.fleet {
		var workerURLs []string
		if c.workers != "" {
			workerURLs = strings.Split(c.workers, ",")
		}
		coord, err = dist.NewCoordinator(dist.CoordinatorConfig{
			Workers:            workerURLs,
			HeartbeatInterval:  c.fleetHeartbeat,
			RecoverAttempts:    c.recoverRounds,
			BoardSync:          c.boardSync,
			Speculate:          c.speculate,
			SpeculateThreshold: c.speculateThr,
		})
		if err != nil {
			return err
		}
		if c.speculate {
			logger.Printf("serve: straggler speculation on (threshold %v)", c.speculateThr)
		}
		for _, w := range coord.Workers() {
			logger.Printf("serve: enrolled worker %s (%d slots)", w.URL, w.Slots)
		}
		if c.fleet {
			logger.Printf("serve: dynamic fleet registration open on /v1/fleet/*")
		}
		backend = coord
	}

	var calStore *calibrate.Store
	if c.calibration != "" {
		calStore, err = calibrate.Load(c.calibration)
		if err != nil {
			return err
		}
		logger.Printf("serve: calibration store %s loaded (%d keys); auto-sizing enabled", c.calibration, len(calStore.Keys()))
	}

	sched := service.New(service.Config{
		Slots:          c.slots,
		QueueDepth:     c.queueDepth,
		DefaultTimeout: c.defaultTimeout,
		MaxTimeout:     c.maxTimeout,
		ResultTTL:      c.ttl,
		Backend:        backend,
		Tenants:        tenantPolicies,
		Calibration:    calStore,
	})
	if expvar.Get("scheduler") == nil { // published once per process
		expvar.Publish("scheduler", expvar.Func(func() any { return sched.Stats() }))
	}

	if c.telemetryPath != "" {
		f, err := os.Create(c.telemetryPath)
		if err != nil {
			sched.Close()
			return fmt.Errorf("telemetry: %w", err)
		}
		defer f.Close()
		stopTelem := startTelemetry(f, c.telemetryEvery, sched, coord, logger)
		defer stopTelem()
		logger.Printf("serve: telemetry -> %s every %v", c.telemetryPath, c.telemetryEvery)
	}

	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(sched))
	mux.Handle("GET /debug/vars", expvar.Handler())
	if coord != nil && c.fleet {
		// Specific patterns take precedence over the "/" catch-all, so
		// the fleet endpoints shadow the service handler here only.
		fh := coord.FleetHandler()
		mux.Handle("/v1/fleet", fh)
		mux.Handle("/v1/fleet/", fh)
	}
	srv := &http.Server{
		Addr:              c.addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// saveCalibration persists what live jobs taught the store; called
	// after the scheduler drains so the last solves are included.
	saveCalibration := func() {
		if calStore == nil {
			return
		}
		if err := calStore.Save(c.calibration); err != nil {
			logger.Printf("serve: saving calibration store: %v", err)
			return
		}
		logger.Printf("serve: calibration store saved to %s (%d keys)", c.calibration, len(calStore.Keys()))
	}

	errc := make(chan error, 1)
	go func() {
		cfg := sched.Config()
		logger.Printf("serve: listening on %s (backend=%s slots=%d queue=%d default-timeout=%v ttl=%v)",
			c.addr, cfg.Backend.Name(), cfg.Slots, cfg.QueueDepth, cfg.DefaultTimeout, cfg.ResultTTL)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		sched.Close()
		saveCalibration()
		return err
	case <-ctx.Done():
		logger.Printf("serve: shutting down")
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("serve: listener shutdown: %v", err)
	}
	sched.Close()
	saveCalibration()
	logger.Printf("serve: drained cleanly")
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
func startTelemetry(f *os.File, every time.Duration, sched *service.Scheduler, coord *dist.Coordinator, logger *log.Logger) (stop func()) {
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
			logger.Printf("serve: telemetry: %v", err)
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
