package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/service"
)

// metric is one measured value under the name BENCHMARK.json gives it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The driver's line is
// the four fields the contract names; -o files hold all of them.
type result struct {
	Header   header `json:"header"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// Rounds timed, jobs in each, every round's wall time, and the
	// sample counts behind latency_p50_ms and latency_p95_ms.
	Rounds        int       `json:"rounds"`
	JobsPerRound  int       `json:"jobs_per_round"`
	RoundWallS    []float64 `json:"round_wall_s"`
	LatencyN      int       `json:"latency_samples"`
	LatencyBeyond int       `json:"latency_samples_beyond_p95"`
	// AsMeasured holds the readings that take every timing as it came,
	// the host's interference included: percentiles over the PooledN
	// timings of all rounds and rates from the median round. They are
	// printed beside the metrics and carry no bound.
	AsMeasured   map[string]metric `json:"as_measured,omitempty"`
	PooledN      int               `json:"pooled_samples,omitempty"`
	PooledBeyond int               `json:"pooled_samples_beyond_p95,omitempty"`

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists the first few failed operations, for the reader.
	Problems []string `json:"problems,omitempty"`
}

// runner plays one workload.
type runner struct {
	w    *workload
	jobs []job
	// Per spec: the factory and engine options the service derives at
	// admission, rebuilt here for the solo replays, and an instance no
	// walker ever touched for checking solutions.
	factory []problems.Factory
	engine  []core.Options
	checker []core.Problem
	// iters[i][w] is the iteration count walker w of job i solves in,
	// first as the service reported it and then as every replay of that
	// walker alone must reproduce it. ref[i] is the job's reference
	// walker: the warm-up's winner (-1 before) until chooseReferences has
	// decided; solo[i] is the fastest of its solo replays so far: the
	// job's cost on an idle core.
	iters []map[int]int64
	ref   []int
	solo  []time.Duration
	// lost[i] is how many iterations the warm-up's loser had used when
	// job i ended.
	lost []int64
	// setup is how long set-up took, stackStart how much of that went
	// into building the stack and answering its probe job.
	setup, stackStart time.Duration

	res *result
}

func newRunner(w *workload, jobs []job, hdr header, trace bool) (*runner, error) {
	r := &runner{
		w: w, jobs: jobs,
		iters: make([]map[int]int64, len(jobs)),
		ref:   make([]int, len(jobs)),
		solo:  make([]time.Duration, len(jobs)),
		lost:  make([]int64, len(jobs)),
		res:   &result{Header: hdr, Workload: w.name, Trace: trace, JobsPerRound: len(jobs), Metrics: map[string]metric{}},
	}
	for _, s := range w.specs {
		f, err := problems.NewFactoryParams(s.Problem, s.Size, s.Params)
		if err != nil {
			return nil, err
		}
		// As the service's admission does: reduce a probe's domains,
		// then read the tuned engine options off it.
		probe, err := f()
		if err != nil {
			return nil, err
		}
		if dr, ok := probe.(core.DomainReducer); ok {
			if err := dr.ReduceDomains(); err != nil {
				return nil, err
			}
		}
		checker, err := f()
		if err != nil {
			return nil, err
		}
		r.factory = append(r.factory, f)
		r.engine = append(r.engine, core.TunedOptions(probe))
		r.checker = append(r.checker, checker)
	}
	return r, nil
}

// fail counts one failed operation.
func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.res.Problems) < 10 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// replay runs walker w of job i alone, as a one-walker shard of the
// two-walker job, which the determinism contract makes bit-for-bit the
// walk that ran inside the job: it must solve, and in the number of
// iterations already on record for that walker. A replay that does not
// is a failed operation. With limit > 0 the walk is stopped once it has
// used that many iterations, and not solving is then no failure.
func (r *runner) replay(i, w int, limit int64) (core.Result, bool) {
	j := &r.jobs[i]
	engine := r.engine[j.spec]
	if limit > 0 {
		engine.Monitor = func(iter int64, _ int, _ []int) core.Directive {
			return core.Directive{Stop: iter >= limit}
		}
	}
	res, err := multiwalk.Run(context.Background(), multiwalk.Factory(r.factory[j.spec]), multiwalk.Options{
		Walkers: 1,
		Seed:    j.seed,
		Engine:  engine,
		Shard:   &multiwalk.Shard{Start: w, Total: walkersPerJob},
	})
	if err == nil && !res.Solved && limit > 0 {
		return core.Result{}, false
	}
	if err != nil || !res.Solved {
		r.fail("job %d: replay of walker %d: solved=%v err=%v", i, w, res.Solved, err)
		return core.Result{}, false
	}
	wr := res.Walkers[0].Result
	if known, ok := r.iters[i][w]; ok && known != wr.Iterations {
		r.fail("job %d: walker %d solves in %d iterations alone, on record are %d", i, w, wr.Iterations, known)
		return core.Result{}, false
	}
	r.iters[i][w] = wr.Iterations
	return wr, true
}

// chooseReferences is the set-up's solo pass. It replays every job's
// warm-up winner alone to the end, which is the exact-iteration check,
// and decides which walker the job's solo time is measured on from then
// on: the one of its two walkers that solves in fewer iterations alone
// (the lower index on a tie). On a job of milliseconds that is the
// walker that wins the race. On a job of tens of microseconds the race
// goes to whichever goroutine starts first, and solo times tied to the
// warm-up's winners moved small-local's sum of them by 2x from run to
// run. The other walker is replayed only if the race ended before it
// had used as many iterations as the winner, and is stopped once it has
// used as many without solving.
func (r *runner) chooseReferences() {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range r.jobs {
		w := r.ref[i] // the warm-up's winner
		if w < 0 {
			continue // the job failed its warm-up and is counted
		}
		wr, ok := r.replay(i, w, 0)
		if !ok {
			r.ref[i] = -1
			continue
		}
		r.solo[i] = wr.Elapsed
		if r.lost[i] > wr.Iterations {
			continue
		}
		other := walkersPerJob - 1 - w
		if or, ok := r.replay(i, other, wr.Iterations+1); ok && (or.Iterations < wr.Iterations || or.Iterations == wr.Iterations && other < w) {
			r.ref[i], r.solo[i] = other, or.Elapsed
		}
	}
}

// soloPass replays every job's reference walker alone and keeps each
// job's fastest replay. The runtime is held to one thread meanwhile: an
// idle second P costs the busy one about 9% here (costas n=15: 5550
// ns/iteration against 5080 with GOMAXPROCS(1) or beside a second
// walker), and "alone on an idle core" must not be slower than "beside
// the loser".
func (r *runner) soloPass() {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range r.jobs {
		if r.ref[i] < 0 {
			continue // the job failed its warm-up or its replay and is counted
		}
		if wr, ok := r.replay(i, r.ref[i], 0); ok && wr.Elapsed < r.solo[i] {
			r.solo[i] = wr.Elapsed
		}
	}
}

// check parses and verifies every reply of the round just played,
// outside any timed path: 200, state solved, a solution that costs 0
// on an instance of our own, and a winner whose iteration count is the
// one its solo replay reproduces. It returns the parsed jobs.
func (r *runner) check(c *client) []service.Job {
	parsed := make([]service.Job, len(r.jobs))
	for i := range r.jobs {
		r.res.Attempted++
		rep := c.replies[i]
		if rep.code != http.StatusOK {
			r.fail("job %d: status %d: %.200s", i, rep.code, c.body(i))
			continue
		}
		job := &parsed[i]
		if err := json.Unmarshal(c.body(i), job); err != nil {
			r.fail("job %d: bad response: %v", i, err)
			continue
		}
		res := job.Result
		if job.State != service.StateSolved || res == nil || !res.Solved {
			r.fail("job %d: state %q, error %q", i, job.State, job.Error)
			continue
		}
		p := r.checker[r.jobs[i].spec]
		if len(res.Solution) != p.Size() {
			r.fail("job %d: solution has %d values, instance %d", i, len(res.Solution), p.Size())
			continue
		}
		if cost := p.Cost(res.Solution); cost != 0 {
			r.fail("job %d: solution costs %d", i, cost)
			continue
		}
		// Whichever walker won, alone it must solve in exactly the same
		// number of iterations. The warm-up puts its winner's count on
		// record for the first solo pass to reproduce; a walker that wins
		// a close race for the first time in a later round is replayed on
		// the spot.
		switch want, known := r.iters[i][res.Winner]; {
		case r.ref[i] < 0 && r.iters[i] == nil:
			r.ref[i] = res.Winner
			r.iters[i] = map[int]int64{res.Winner: res.WinnerIterations}
			r.lost[i] = res.TotalIterations - res.WinnerIterations
		case !known:
			if wr, ok := r.replay(i, res.Winner, 0); ok && wr.Iterations != res.WinnerIterations {
				r.fail("job %d: walker %d won in %d iterations, alone it takes %d", i, res.Winner, res.WinnerIterations, wr.Iterations)
			}
		case res.WinnerIterations != want:
			r.fail("job %d: walker %d won in %d iterations, on record are %d", i, res.Winner, res.WinnerIterations, want)
		}
	}
	return parsed
}

// setUp builds the stack, warms it with one untimed pass of the list,
// and replays every job's walkers alone on the then idle process:
// seconds of seeded CPU work. Where that is cheap (workload.setups) it
// is done several times, each on a fresh stack with nothing kept from
// the time before, and setup_s is the fastest, as a job's latency is
// the fastest of its timings; the timed rounds use the last one's stack
// and replays.
func (r *runner) setUp() (*stack, *client, error) {
	var (
		st            *stack
		c             *client
		walls, starts []float64
	)
	for k := 0; k < r.w.setups; k++ {
		if st != nil {
			st.close()
		}
		for i := range r.jobs {
			r.iters[i], r.ref[i], r.solo[i], r.lost[i] = nil, -1, 0, 0
		}
		t0 := time.Now()
		var err error
		if st, err = buildStack(r.w, nil); err != nil {
			return nil, nil, err
		}
		c = newClient(st.handler)
		c.play(r.jobs, nil)
		r.check(c)
		r.chooseReferences()
		walls = append(walls, time.Since(t0).Seconds())
		starts = append(starts, st.start.Seconds())
	}
	r.setup = time.Duration(slices.Min(walls) * float64(time.Second))
	r.stackStart = time.Duration(slices.Min(starts) * float64(time.Second))
	return st, c, nil
}

// round is what one timed pass of the list yields.
type round struct {
	wall    time.Duration
	alloc   uint64
	lat     []float64 // per job, ms
	sumLat  time.Duration
	iters   int64 // sum of result.total_iterations
	winIter int64 // sum of result.winner_iterations
	parsed  []service.Job
}

func (r *runner) playRound(c *client, tr *tracer) round {
	runtime.GC()
	var rd round
	rd.wall, rd.alloc = c.play(r.jobs, tr)
	rd.lat = make([]float64, len(r.jobs))
	for i, rep := range c.replies {
		d := rep.end.Sub(rep.start)
		rd.lat[i] = ms(d)
		rd.sumLat += d
	}
	rd.parsed = r.check(c)
	for _, job := range rd.parsed {
		if job.Result != nil {
			rd.iters += job.Result.TotalIterations
			rd.winIter += job.Result.WinnerIterations
		}
	}
	return rd
}

// measure runs the timed rounds, with more solo passes between them
// (workload.soloEvery), and fills the end-to-end metrics. The two kinds
// of timing alternate so that a slow stretch of the host weighs on both
// sides of parallel_efficiency.
//
// Every job is timed once per round, and a job's latency is the
// fastest of those timings. On this shared host a neighbour slows the
// same solve by up to 2x, for stretches of milliseconds to minutes, and
// interference only ever adds time, so the minimum over repetitions of
// identical work is the estimate it biases least; over ten runs it
// halved the spread of every time-based metric against a median over
// rounds (README.md has the numbers). Percentiles are over jobs, not
// over repeated timings of the same jobs. The readings that take every
// timing as it came are reported beside the metrics, as measured.
func (r *runner) measure(c *client, rounds int) {
	n := len(r.jobs)
	best := make([]float64, n)    // a job's fastest timing, ms
	bestIters := make([]int64, n) // and the total_iterations of that reply
	pooled := make([]float64, 0, rounds*n)
	var overhead time.Duration // a round's wall time not inside any job
	var allocPerJob, jobRate, iterRate []float64
	for k := 0; k < rounds; k++ {
		rd := r.playRound(c, nil)
		for i, l := range rd.lat {
			if k == 0 || l < best[i] {
				best[i] = l
				if res := rd.parsed[i].Result; res != nil {
					bestIters[i] = res.TotalIterations
				}
			}
		}
		if d := rd.wall - rd.sumLat; k == 0 || d < overhead {
			overhead = d
		}
		pooled = append(pooled, rd.lat...)
		allocPerJob = append(allocPerJob, float64(rd.alloc)/float64(n))
		jobRate = append(jobRate, float64(n)/rd.wall.Seconds())
		iterRate = append(iterRate, float64(rd.iters)/rd.wall.Seconds())
		r.res.RoundWallS = append(r.res.RoundWallS, rd.wall.Seconds())
		if (k+1)%r.w.soloEvery == 0 && k+1 < rounds {
			r.soloPass()
		}
	}
	var sumBest float64
	var sumIters int64
	for i, l := range best {
		sumBest += l
		sumIters += bestIters[i]
	}
	var sumSolo time.Duration
	for _, d := range r.solo {
		sumSolo += d
	}
	// The round in which every job runs at its fastest, in seconds: with
	// one client in a closed loop a round is its jobs' latencies plus the
	// client's own time between them.
	wall := sumBest/1000 + overhead.Seconds()

	r.res.Rounds = rounds
	r.res.LatencyN = n
	r.res.LatencyBeyond = samplesBeyond(n, 0.95)
	m := r.res.Metrics
	m["setup_s"] = metric{r.setup.Seconds(), "s"}
	m["jobs_per_s"] = metric{float64(n) / wall, "1/s"}
	m["latency_p50_ms"] = metric{quantile(best, 0.5), "ms"}
	m["latency_p95_ms"] = metric{quantile(best, 0.95), "ms"}
	m["iters_per_s"] = metric{float64(sumIters) / wall, "1/s"}
	m["parallel_efficiency"] = metric{ms(sumSolo) / sumBest, "ratio"}
	m["alloc_bytes_per_job"] = metric{median(allocPerJob), "B"}

	r.res.PooledN = len(pooled)
	r.res.PooledBeyond = samplesBeyond(len(pooled), 0.95)
	r.res.AsMeasured = map[string]metric{
		"jobs_per_s":     {median(jobRate), "1/s"},
		"latency_p50_ms": {quantile(pooled, 0.5), "ms"},
		"latency_p95_ms": {quantile(pooled, 0.95), "ms"},
		"iters_per_s":    {median(iterRate), "1/s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
