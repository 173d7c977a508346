package main

import (
	"context"
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/problems"
	"repro/internal/wire"
)

// layerSums adds up, over the jobs of one traced round, the parts each
// layer contributes to a job's latency. Every field is nanoseconds
// unless named otherwise.
type layerSums struct {
	jobs    int
	latency int64
	// service: handler entry to submitted_at, submitted_at to
	// started_at, end of the backend span to handler return.
	admit, queue, finish int64
	// backend is the RunJob span. On the local backend it splits into
	// mwSelf + search, on the fleet into coordSelf + workerSelf + search,
	// where search is the longest walker Elapsed under the blocking call.
	backend, mwSelf, coordSelf, workerSelf int64
	winner                                 int64 // winning walker's Elapsed
	// fleet only
	runSpans, cancelSpans int
	reqBytes, respBytes   int
	loserWait             int64
}

// sumLayers walks the traced round job by job. Spans give the nesting
// client > backend.RunJob > worker.run; the stamps in the job reply
// split the client span's self time; the per-walker Elapsed carried by
// results says how much of the innermost span was search.
func (r *runner) sumLayers(tr *tracer, c *client, rd round) layerSums {
	type jobSpans struct {
		client, backend *span
		runs            []span
	}
	byJob := make([]jobSpans, len(r.jobs))
	var sums layerSums
	for k := range tr.spans {
		s := &tr.spans[k]
		js := &byJob[s.Job]
		switch s.Name {
		case spanClient:
			js.client = s
		case spanBackend:
			js.backend = s
		case spanRun:
			js.runs = append(js.runs, *s)
		case spanCancel:
			sums.cancelSpans++
		}
	}
	for i, js := range byJob {
		job := &rd.parsed[i]
		if js.client == nil || js.backend == nil || job.Result == nil {
			r.fail("job %d: traced round recorded no client or backend span", i)
			continue
		}
		C, B := *js.client, *js.backend
		sums.jobs++
		sums.latency += C.dur()
		sums.admit += int64(job.SubmittedAt.Sub(c.replies[i].start))
		sums.queue += int64(job.StartedAt.Sub(job.SubmittedAt))
		sums.finish += C.End - B.End
		sums.backend += B.dur()
		sums.winner += B.WinnerNS
		if !r.w.fleet {
			sums.mwSelf += B.dur() - B.SearchNS
			continue
		}
		if len(js.runs) == 0 {
			r.fail("job %d: traced fleet round recorded no worker span", i)
			continue
		}
		// The blocking shard is the one whose response the coordinator
		// waited for last; the first solved one is where the job could
		// have ended.
		var last *span
		firstSolved := int64(-1)
		for k := range js.runs {
			w := &js.runs[k]
			var resp dist.RunResponse
			if err := json.Unmarshal(w.resp, &resp); err != nil {
				r.fail("job %d: worker %d response: %v", i, w.Worker, err)
				continue
			}
			for _, ws := range resp.Stats {
				w.SearchNS = max(w.SearchNS, ws.ElapsedNS)
				w.Solved = w.Solved || ws.Solved
			}
			if last == nil || w.End > last.End {
				last = w
			}
			if w.Solved && (firstSolved < 0 || w.End < firstSolved) {
				firstSolved = w.End
			}
			sums.runSpans++
			sums.reqBytes += w.ReqBytes
			sums.respBytes += w.RespBytes
		}
		if last == nil {
			continue
		}
		coord := selfTime(B, js.runs)
		sums.coordSelf += coord
		sums.workerSelf += B.dur() - coord - last.SearchNS
		if firstSolved >= 0 {
			sums.loserWait += last.End - firstSolved
		}
	}
	return sums
}

// layerMetrics turns a traced round, the set-up's solo replays and a
// few fixed-count loops over the layers' public functions into the
// per-layer ledger. Times are means per job, so that the parts of a
// workload add up to its mean latency. A layer a workload never enters
// reads 0.
func (r *runner) layerMetrics(tr *tracer, c *client, rd, plain round, alphaIters int64) error {
	s := r.sumLayers(tr, c, rd)
	if s.jobs == 0 {
		return nil // every job failed and is counted as such
	}
	perJob := func(ns int64) float64 { return us(time.Duration(ns)) / float64(s.jobs) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := r.res.Metrics

	var soloIters int64
	var soloTime time.Duration
	for i, d := range r.solo {
		if r.ref[i] >= 0 {
			soloIters += r.iters[i][r.ref[i]]
			soloTime += d
		}
	}
	m["core.solo_iters_per_s"] = metric{ratio(float64(soloIters), soloTime.Seconds()), "1/s"}
	m["core.search_share"] = metric{ratio(float64(s.winner), float64(s.latency)), "ratio"}
	m["multiwalk.self_us"] = metric{perJob(s.mwSelf), "us"}
	m["multiwalk.winner_iters_share"] = metric{ratio(float64(rd.winIter), float64(rd.iters)), "ratio"}
	m["service.admit_us"] = metric{perJob(s.admit), "us"}
	m["service.queue_us"] = metric{perJob(s.queue), "us"}
	m["service.finish_us"] = metric{perJob(s.finish), "us"}
	m["service.stack_start_ms"] = metric{ms(r.stackStart), "ms"}
	m["dist.coordinator_us"] = metric{perJob(s.coordSelf), "us"}
	m["dist.worker_us"] = metric{perJob(s.workerSelf), "us"}
	m["dist.run_request_bytes"] = metric{ratio(float64(s.reqBytes), float64(s.runSpans)), "B"}
	m["dist.run_response_bytes"] = metric{ratio(float64(s.respBytes), float64(s.runSpans)), "B"}
	m["dist.loser_wait_us"] = metric{perJob(s.loserWait), "us"}
	// Every job here has two shards, so jobs is the number of two-shard
	// jobs on the fleet.
	cancels := 0.0
	if r.w.fleet {
		cancels = float64(s.cancelSpans) / float64(s.jobs)
	}
	m["dist.cancel_rpcs_per_job"] = metric{cancels, "count"}
	// Job by job against the untraced round of the same process; the
	// median, because either timing of a pair may have hit a slow moment.
	slower := make([]float64, len(rd.lat))
	for i := range rd.lat {
		slower[i] = ratio(rd.lat[i], plain.lat[i])
	}
	m["trace_overhead"] = metric{median(slower) - 1, "ratio"}
	// What the parts above leave out is the scheduler's few instructions
	// between stamping started_at and calling the backend.
	m["trace_parts_share"] = metric{ratio(float64(s.admit+s.queue+s.backend+s.finish), float64(s.latency)), "ratio"}

	constructUS, constructB, reduceUS, err := r.constructCost()
	if err != nil {
		return err
	}
	m["problems.construct_us"] = metric{constructUS, "us"}
	m["problems.construct_bytes"] = metric{constructB, "B"}
	m["domain.reduce_us"] = metric{reduceUS, "us"}

	frameNS, frameB, err := r.runSpecCost()
	if err != nil {
		return err
	}
	m["wire.runspec_encode_ns"] = metric{frameNS, "ns"}
	m["wire.runspec_bytes"] = metric{frameB, "B"}

	// No workload reaches csp; the compiled alpha model is timed on its
	// own so the ledger has a line for the layer.
	alpha, err := bench.MeasureIterRate(context.Background(), "alpha", 26, r.res.Header.Seed, alphaIters)
	if err != nil {
		return err
	}
	m["csp.alpha_iters_per_s"] = metric{alpha.ItersPerSec, "1/s"}
	return nil
}

// layerLoops is how many passes over the workload's spec pattern the
// fixed-count loops below make.
const layerLoops = 50

// constructCost times problems.NewWithParams over the workload's specs
// in the workload's own mix, and ReduceDomains on the fresh instances
// that have domains to reduce. It returns means per construction and
// per reduction.
func (r *runner) constructCost() (constructUS, constructBytes, reduceUS float64, err error) {
	var built, reduced int
	var construct, reduce time.Duration
	var bytes uint64
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < layerLoops; pass++ {
		for _, idx := range r.w.pattern {
			s := r.w.specs[idx]
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			p, err := problems.NewWithParams(s.Problem, s.Size, s.Params)
			construct += time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return 0, 0, 0, err
			}
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
			built++
			if dr, ok := p.(core.DomainReducer); ok {
				t0 := time.Now()
				err := dr.ReduceDomains()
				reduce += time.Since(t0)
				if err != nil {
					return 0, 0, 0, err
				}
				reduced++
			}
		}
	}
	constructUS, constructBytes = us(construct)/float64(built), float64(bytes)/float64(built)
	if reduced > 0 {
		reduceUS = us(reduce) / float64(reduced)
	}
	return constructUS, constructBytes, reduceUS, nil
}

// runSpecCost encodes the binary shard-dispatch frame for the
// workload's specs. Nothing sends that frame today (Stream is off by
// default); the number is the reference for moving dispatch onto it.
func (r *runner) runSpecCost() (ns, frameBytes float64, err error) {
	specs := make([]wire.RunSpec, len(r.w.pattern))
	for k, idx := range r.w.pattern {
		s, e := r.w.specs[idx], r.engine[idx]
		specs[k] = wire.RunSpec{
			ID: "job000001-s0", Mode: dist.ModeRun,
			Problem: s.Problem, Size: int64(s.Size), Seed: r.jobs[0].seed,
			TotalWalkers: walkersPerJob, Count: 1, DeadlineMS: 60000,
			Engine: wire.EngineSpec{
				MaxIterations: e.MaxIterations, MaxRuns: int64(e.MaxRuns),
				FreezeLocMin: int64(e.FreezeLocMin), FreezeSwap: int64(e.FreezeSwap),
				ResetLimit: int64(e.ResetLimit), ResetFraction: e.ResetFraction,
				ProbSelectLocMin: e.ProbSelectLocMin, Strategy: e.Strategy,
				FirstBest: e.FirstBest, Exhaustive: e.Exhaustive, CheckEvery: int64(e.CheckEvery),
			},
		}
		if len(s.Params) > 0 {
			specs[k].Params = make(map[string]int64, len(s.Params))
			for name, v := range s.Params {
				specs[k].Params[name] = int64(v)
			}
		}
	}
	var enc wire.Encoder
	var buf []byte
	var size int
	const passes = 20 * layerLoops
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for k := range specs {
			if buf, err = enc.RunSpecFrame(buf[:0], &specs[k]); err != nil {
				return 0, 0, err
			}
			size += len(buf)
		}
	}
	frames := float64(passes * len(specs))
	return float64(time.Since(t0)) / frames, float64(size) / frames, nil
}
