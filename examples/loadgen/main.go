// Command loadgen hammers a solve service with a mixed
// problem/portfolio workload and reports throughput, latency
// percentiles and per-outcome counts. It is both a benchmarking tool
// and the serving-path smoke test run in CI.
//
// Usage:
//
//	loadgen -inprocess -jobs 200 -concurrency 32            # self-hosted smoke
//	loadgen -inprocess -dist-workers 3 -jobs 200            # in-process distributed fleet
//	loadgen -inprocess -dist-workers 3 -exchange -jobs 100  # dependent runs across the fleet
//	loadgen -addr http://localhost:8080 -jobs 1000          # against cmd/serve
//	loadgen -addr http://localhost:8080 -autosize costas:10 # predictor-sized jobs (serve -calibration)
//
// Every -async-every'th job is submitted without {"wait": true} and
// awaited by long-poll — GET /v1/jobs/{id}?wait=10s, asked again while
// the answer is not terminal — so a job that finishes within the
// server's cap costs exactly one GET; the transport line reports both
// counts.
//
// -dist-workers n stands up n in-process dist workers plus a
// coordinator backend behind the scheduler — the full distributed
// serving path (shard planning, worker HTTP protocol, cross-worker
// cancellation) in one race-detectable process.
//
// Every job must reach a terminal state; dropped results, failed jobs
// or unexpected HTTP statuses make the process exit non-zero. 429
// backpressure responses are retried with backoff — admission control
// rejecting excess load is correct behavior, losing an admitted job is
// not.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/service"
)

// scenario is one entry of the mixed workload.
type scenario struct {
	name string
	req  map[string]any
}

func scenarios(timeoutMS int64, exchange bool) []scenario {
	mix := []scenario{
		{"costas-8", map[string]any{"problem": "costas", "size": 8, "walkers": 1, "timeout_ms": timeoutMS}},
		{"costas-10x2", map[string]any{"problem": "costas", "size": 10, "walkers": 2, "timeout_ms": timeoutMS}},
		{"queens-32", map[string]any{"problem": "queens", "size": 32, "walkers": 1, "timeout_ms": timeoutMS}},
		{"all-interval-10", map[string]any{"problem": "all-interval", "size": 10, "walkers": 2, "timeout_ms": timeoutMS}},
		{"magic-square-5", map[string]any{"problem": "magic-square", "size": 5, "walkers": 1, "timeout_ms": timeoutMS}},
		// The finite-domain benchmark: exercises the assign/flip move
		// path and problem-parameter plumbing end to end.
		{"timetable-20", map[string]any{
			"problem": "timetable", "size": 20, "walkers": 2, "timeout_ms": timeoutMS,
			"params": map[string]any{"slots": 6, "rooms": 4, "teachers": 4},
		}},
		{"portfolio-costas-9", map[string]any{
			"problem": "costas", "size": 9, "walkers": 2, "timeout_ms": timeoutMS,
			"portfolio": []map[string]any{{"strategy": "adaptive", "weight": 1}, {"strategy": "metropolis", "weight": 1}},
		}},
	}
	if exchange {
		// Dependent mode: multi-walker scenarios cooperate through the
		// elite board — on a dist backend, across worker processes.
		for _, sc := range mix {
			if w, ok := sc.req["walkers"].(int); ok && w >= 2 {
				sc.req["exchange"] = map[string]any{"enabled": true, "period_iters": 256, "adopt_factor": 1.5}
			}
		}
	}
	return mix
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, drives the workload and
// writes the report to stdout. Per-job diagnostics and flag usage go to
// stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "", "target service base URL (empty with -inprocess)")
		inprocess   = fs.Bool("inprocess", false, "spin up the service in-process instead of targeting -addr")
		jobs        = fs.Int("jobs", 200, "total jobs to submit")
		concurrency = fs.Int("concurrency", 32, "concurrent client workers")
		timeoutMS   = fs.Int64("job-timeout-ms", 15_000, "per-job solver deadline")
		slots       = fs.Int("slots", 0, "in-process pool size (0 = GOMAXPROCS)")
		queueDepth  = fs.Int("queue", 0, "in-process queue depth (0 = 256)")
		distWorkers = fs.Int("dist-workers", 0, "with -inprocess: run jobs on this many in-process dist workers (0 = local backend)")
		distSlots   = fs.Int("dist-slots", 2, "slot capacity of each in-process dist worker")
		asyncEvery  = fs.Int("async-every", 5, "submit every n-th job async and await it by long-poll GET /v1/jobs/{id}?wait= (0 = every job is a synchronous {\"wait\": true} POST)")
		seed        = fs.Int64("seed", 1, "workload shuffle seed")
		exchange    = fs.Bool("exchange", false, "run multi-walker scenarios in dependent (exchange) mode — on a dist backend, walkers cooperate across worker processes")
		tenantsMix  = fs.String("tenants", "", "attribute jobs to tenants by weight, name=weight,... (e.g. batch=3,interactive=1); empty submits without tenant attribution")
		autosize    = fs.String("autosize", "", "replace the mixed workload with auto-sized jobs of this problem spec (\"problem\" or \"problem:size\"): requests carry {\"autosize\": {}} instead of a walker count, the server must hold calibration for the problem (serve -calibration), and every returned job must echo a predictor-chosen walker count >= 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *distWorkers > 0 && !*inprocess {
		return fmt.Errorf("-dist-workers builds an in-process fleet and requires -inprocess (to load-test a real fleet, point -addr at a serve -workers instance)")
	}
	base := *addr
	client := http.DefaultClient
	if *inprocess {
		var backend service.Backend
		var fleetDown func()
		if *distWorkers > 0 {
			var err error
			backend, fleetDown, err = inprocessFleet(*distWorkers, *distSlots)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "in-process fleet: %d workers x %d slots\n", *distWorkers, *distSlots)
		}
		sched := service.New(service.Config{Slots: *slots, QueueDepth: *queueDepth, Backend: backend})
		srv := httptest.NewServer(service.NewHandler(sched))
		defer func() {
			srv.Close()
			sched.Close() // closes the coordinator backend too
			if fleetDown != nil {
				fleetDown()
			}
			fmt.Fprintln(stdout, "clean shutdown: scheduler drained")
		}()
		base = srv.URL
		client = srv.Client()
	}
	if base == "" {
		return fmt.Errorf("need -addr or -inprocess")
	}

	// Clamp scenario walker counts to the server's pool size (a
	// k-walker job needs k slots) so the mix adapts to any machine —
	// single-core CI included.
	poolSlots, err := serverSlots(client, base)
	if err != nil {
		return fmt.Errorf("probing %s/healthz: %w", base, err)
	}
	mix := scenarios(*timeoutMS, *exchange)
	if *autosize != "" {
		sc, err := autosizeScenario(*autosize, *timeoutMS)
		if err != nil {
			return err
		}
		mix = []scenario{sc}
	}
	for _, sc := range mix {
		w, ok := sc.req["walkers"].(int)
		if !ok {
			continue
		}
		if w > poolSlots {
			w = poolSlots
			sc.req["walkers"] = w
		}
		// A portfolio entry beyond the walker count is unreachable and
		// rejected at admission; trim the mix to fit.
		if pf, ok := sc.req["portfolio"].([]map[string]any); ok && len(pf) > w {
			sc.req["portfolio"] = pf[:w]
		}
	}
	rng := rand.New(rand.NewSource(*seed))
	order := make([]int, *jobs)
	for i := range order {
		order[i] = rng.Intn(len(mix))
	}
	tenantPick, err := parseTenantMix(*tenantsMix)
	if err != nil {
		return err
	}
	tenantOf := make([]string, *jobs)
	if tenantPick != nil {
		for i := range tenantOf {
			tenantOf[i] = tenantPick(rng)
		}
	}

	var (
		mu         sync.Mutex
		latencies  []time.Duration
		outcomes   = map[service.State]int{}
		perScen    = map[string]int{}
		perTenant  = map[string]int{}
		perWalkers = map[int]int{}
		retries    atomic.Int64
		dropped    atomic.Int64
		failures   atomic.Int64
		transport  transportMix
	)

	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sc := mix[order[i]]
				wait := *asyncEvery == 0 || i%*asyncEvery != 0
				t0 := time.Now()
				job, nRetries, err := submit(client, base, sc, tenantOf[i], uint64(i+1), wait, &transport)
				lat := time.Since(t0)
				retries.Add(int64(nRetries))
				if err != nil {
					fmt.Fprintf(os.Stderr, "job %d (%s): %v\n", i, sc.name, err)
					dropped.Add(1)
					continue
				}
				if job.State == service.StateFailed {
					fmt.Fprintf(os.Stderr, "job %d (%s) failed: %s\n", i, sc.name, job.Error)
					failures.Add(1)
				}
				if *autosize != "" && job.Request.Walkers < 1 {
					// The request carried no walker count, so a sane echo
					// proves the predictor actually sized the job.
					fmt.Fprintf(os.Stderr, "job %d (%s): autosized job echoes walkers=%d\n", i, sc.name, job.Request.Walkers)
					failures.Add(1)
				}
				mu.Lock()
				latencies = append(latencies, lat)
				outcomes[job.State]++
				perScen[sc.name]++
				if *autosize != "" {
					perWalkers[job.Request.Walkers]++
				}
				if tenantOf[i] != "" {
					perTenant[tenantOf[i]]++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	var stats service.Stats
	if resp, err := client.Get(base + "/metrics"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
	}

	report(stdout, *jobs, elapsed, latencies, outcomes, perScen, perTenant, perWalkers, stats, retries.Load(), &transport)

	if d := dropped.Load(); d > 0 {
		return fmt.Errorf("%d of %d jobs dropped", d, *jobs)
	}
	if f := failures.Load(); f > 0 {
		return fmt.Errorf("%d of %d jobs failed", f, *jobs)
	}
	if got := len(latencies); got != *jobs {
		return fmt.Errorf("accounted for %d of %d jobs", got, *jobs)
	}
	return nil
}

// inprocessFleet stands up n dist workers behind httptest servers and
// a coordinator over them — the whole distributed serving path inside
// one process, which is what the race-enabled smoke runs exercise.
func inprocessFleet(n, slotsEach int) (service.Backend, func(), error) {
	workers := make([]*dist.Worker, 0, n)
	servers := make([]*httptest.Server, 0, n)
	urls := make([]string, 0, n)
	down := func() {
		for i := range servers {
			servers[i].Close()
			workers[i].Close()
		}
	}
	for i := 0; i < n; i++ {
		wk := dist.NewWorker(dist.WorkerConfig{Slots: slotsEach})
		srv := httptest.NewServer(wk.Handler())
		workers = append(workers, wk)
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Workers: urls})
	if err != nil {
		down()
		return nil, nil, err
	}
	return coord, down, nil
}

// serverSlots reads the walker-slot pool size from /healthz.
func serverSlots(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		Slots int `json:"slots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, err
	}
	if health.Slots < 1 {
		return 0, fmt.Errorf("server reports %d slots", health.Slots)
	}
	return health.Slots, nil
}

// transportMix counts how each job reached its terminal state, and what
// the async ones cost in requests.
type transportMix struct {
	waited  atomic.Int64 // synchronous {"wait": true}
	awaited atomic.Int64 // async, awaited by long-poll
	gets    atomic.Int64 // GET /v1/jobs/{id}?wait= requests issued
}

// longPollWait is the wait every long-poll asks for: the server's cap,
// so a job that outlives it costs one more GET per cap, not more.
const longPollWait = "10s"

// submit runs one job to a terminal state: synchronously via
// {"wait": true}, or asynchronously — submitted, then awaited by
// long-poll. 429 responses are retried with backoff and reported in the
// retry counter.
func submit(client *http.Client, base string, sc scenario, tenant string, seed uint64, wait bool, mix *transportMix) (service.Job, int, error) {
	req := make(map[string]any, len(sc.req)+3)
	for k, v := range sc.req {
		req[k] = v
	}
	req["seed"] = seed
	req["wait"] = wait
	if tenant != "" {
		req["tenant"] = tenant
	}
	body, err := json.Marshal(req)
	if err != nil {
		return service.Job{}, 0, err
	}

	retries := 0
	var job service.Job
	for {
		resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return service.Job{}, retries, err
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			retries++
			time.Sleep(time.Duration(min(retries, 50)) * 2 * time.Millisecond)
			continue
		}
		if decodeErr != nil {
			return service.Job{}, retries, decodeErr
		}
		if wait && resp.StatusCode == http.StatusOK {
			mix.waited.Add(1)
			return job, retries, nil
		}
		if !wait && resp.StatusCode == http.StatusAccepted {
			break
		}
		return service.Job{}, retries, fmt.Errorf("unexpected status %d: %+v", resp.StatusCode, job)
	}

	// Async path: long-poll until the answer is terminal. The server
	// holds each request until the job finishes or the wait runs out, so
	// there is nothing to pace on this side.
	mix.awaited.Add(1)
	for {
		mix.gets.Add(1)
		resp, err := client.Get(base + "/v1/jobs/" + job.ID + "?wait=" + longPollWait)
		if err != nil {
			return service.Job{}, retries, err
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return service.Job{}, retries, fmt.Errorf("long-poll status %d", resp.StatusCode)
		}
		if decodeErr != nil {
			return service.Job{}, retries, decodeErr
		}
		if job.State.Terminal() {
			return job, retries, nil
		}
	}
}

// parseTenantMix parses -tenants (name=weight,...) into a weighted
// random picker over tenant names; nil when the flag is unset.
func parseTenantMix(spec string) (func(*rand.Rand) string, error) {
	if spec == "" {
		return nil, nil
	}
	type tw struct {
		name   string
		weight int
	}
	var mix []tw
	total := 0
	for _, entry := range strings.Split(spec, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: entry %q is not name=weight", entry)
		}
		w, err := strconv.Atoi(wstr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenants: %s: weight %q is not a positive integer", name, wstr)
		}
		mix = append(mix, tw{name, w})
		total += w
	}
	return func(rng *rand.Rand) string {
		n := rng.Intn(total)
		for _, t := range mix {
			if n -= t.weight; n < 0 {
				return t.name
			}
		}
		return mix[len(mix)-1].name
	}, nil
}

// autosizeScenario builds the single-scenario auto-sizing workload
// from a "problem" or "problem:size" spec: jobs carry {"autosize": {}}
// (knee mode — no latency target) and no walker count, so the server's
// predictor must size every one of them.
func autosizeScenario(spec string, timeoutMS int64) (scenario, error) {
	problem, sizeStr, sized := strings.Cut(spec, ":")
	if problem == "" {
		return scenario{}, fmt.Errorf("-autosize: empty problem in %q", spec)
	}
	req := map[string]any{"problem": problem, "autosize": map[string]any{}, "timeout_ms": timeoutMS}
	name := "autosize-" + problem
	if sized {
		size, err := strconv.Atoi(sizeStr)
		if err != nil || size < 1 {
			return scenario{}, fmt.Errorf("-autosize: size %q is not a positive integer", sizeStr)
		}
		req["size"] = size
		name += "-" + sizeStr
	}
	return scenario{name, req}, nil
}

func report(w io.Writer, jobs int, elapsed time.Duration, lats []time.Duration, outcomes map[service.State]int, perScen, perTenant map[string]int, perWalkers map[int]int, stats service.Stats, retries int64, mix *transportMix) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p * float64(len(lats)-1))
		return lats[idx]
	}
	fmt.Fprintf(w, "loadgen: %d jobs in %v (%.1f jobs/s), %d backpressure retries\n",
		jobs, elapsed.Round(time.Millisecond), float64(len(lats))/elapsed.Seconds(), retries)
	fmt.Fprintf(w, "latency: p50=%v p90=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Fprintf(w, "transport: %d waited / %d awaited (%d GETs)\n",
		mix.waited.Load(), mix.awaited.Load(), mix.gets.Load())
	states := make([]string, 0, len(outcomes))
	for s := range outcomes {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "outcome %-10s %d\n", s, outcomes[service.State(s)])
	}
	scens := make([]string, 0, len(perScen))
	for s := range perScen {
		scens = append(scens, s)
	}
	sort.Strings(scens)
	for _, s := range scens {
		fmt.Fprintf(w, "scenario %-18s %d\n", s, perScen[s])
	}
	tenants := make([]string, 0, len(perTenant))
	for t := range perTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		line := fmt.Sprintf("tenant %-12s %d jobs", t, perTenant[t])
		if ts, ok := stats.Tenants[t]; ok {
			line += fmt.Sprintf(" (server: weight=%d dispatched=%d charge=%.2f)", ts.Weight, ts.Dispatched, ts.Charge)
		}
		fmt.Fprintln(w, line)
	}
	ks := make([]int, 0, len(perWalkers))
	for k := range perWalkers {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Fprintf(w, "autosized walkers=%d        %d jobs\n", k, perWalkers[k])
	}
	if stats.JobsSubmitted > 0 {
		fmt.Fprintf(w, "server: %d iterations total (%.0f iters/s), peak pool %d slots\n",
			stats.Iterations, stats.IterationsPerSec, stats.Slots)
	}
	if stats.AutoSized > 0 || stats.AutoRejected > 0 {
		fmt.Fprintf(w, "server: %d autosize predictions, %d autosize rejections\n",
			stats.AutoSized, stats.AutoRejected)
	}
	if n := stats.Fleet["speculations_launched"]; n > 0 {
		fmt.Fprintf(w, "speculation: %d launched, %d won, %d lost, %d cancelled\n",
			n, stats.Fleet["speculations_won"], stats.Fleet["speculations_lost"],
			stats.Fleet["speculations_cancelled"])
	}
}
