package dist

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/httpjson"
)

// Straggler speculation. A wall-clock job that runs out its budget
// unsolved finishes when its slowest shard does (a solved one ends at
// its first solved shard, which cancels the rest) — order statistics,
// the same tail the paper's §2 analysis is about, now over shards
// instead of walkers. PR 8 recovers
// shards whose worker *died*; a slow-but-alive worker (CPU-throttled
// box, paused VM, noisy neighbor) still holds the whole job hostage.
// The fix is classic speculative execution, made correctness-free by
// this system's determinism contract: a walker's identity is its
// global index, so a re-run of the same range is bit-for-bit the run
// the straggler would eventually produce, and "take whichever copy
// lands first" cannot change the result — only when it arrives.
//
// Three pieces, all of them events and timers of the job's one loop
// (coordinator.go's fleetJob):
//
//   - progress reads: speculation-enabled shard requests ask the worker
//     to keep per-walker counters ("progress": true), and every detector
//     tick reads each unresolved copy's count with GET /v1/runs/{id},
//     on the same fleet client as run and cancel — the coordinator
//     calls, the worker answers, and no second listener is opened;
//   - a detector: when a tick's last reading is in, compare each
//     unresolved shard's per-walker iteration count against the job
//     median; lagging more than SpeculateThreshold behind (with a
//     minimum job age, a remaining-work guard, and at most one backup
//     per shard) launches a backup on a free healthy worker the primary
//     is not on, unless the job has solved or been cancelled;
//   - first-wins resolution: every shard is a slot whose first
//     delivered outcome wins; the loser is cancelled (releasing its
//     reservation the moment the worker acks) and its late result is
//     dropped before CombineShards ever sees it, so walker stats are
//     never double-counted.

// specMinRemaining is the remaining-work guard: a shard past this
// close to its iteration budget finishes before any backup could help,
// so it never speculates. Expressed as the minimum remaining fraction
// of the per-walker budget.
const specMinRemaining = 0.25

// specSlot is one shard's first-wins state machine; every dispatched
// shard is one. A slot starts with the primary in flight, gains at most
// one backup (only in a speculating round), and resolves with the first
// delivered outcome; everything after resolution is a loser whose
// result is dropped. A failed copy (lost or rejected) does not resolve
// the slot while the other copy is still running — the whole point of
// the backup is outliving a bad primary.
type specSlot struct {
	primary  *assignment
	backup   *assignment // nil until a backup launches
	inflight int
	resolved bool
	outcome  shardOutcome
	pending  *shardOutcome // first failed delivery, held for the other copy
	seen     int64         // the highest iteration count either copy reported
}

// deliverSpec delivers one copy's outcome to its slot. It returns
// whether this delivery resolved the slot, the resolved outcome, and
// the loser still in flight (to cancel), if any.
func (c *Coordinator) deliverSpec(s *specSlot, from *assignment, out shardOutcome) (resolvedNow bool, final shardOutcome, loser *assignment) {
	s.inflight--
	if s.resolved {
		// Late loser: its duplicate stats are dropped here, before
		// CombineShards could ever double-count the walker range.
		return false, shardOutcome{}, nil
	}
	bad := out.lost || out.err != nil
	if bad && s.inflight > 0 {
		// The other copy may still succeed; hold the failure. An
		// application rejection outranks a transport loss — if both
		// copies fail, the caller must see the reject.
		if s.pending == nil || (s.pending.err == nil && out.err != nil) {
			held := out
			s.pending = &held
		}
		return false, shardOutcome{}, nil
	}
	if bad && s.pending != nil && s.pending.err != nil && out.err == nil {
		out = *s.pending
	}
	s.resolved = true
	s.outcome = out
	if s.backup != nil && !bad {
		if from == s.backup {
			c.mSpecWon.Add(1)
		} else {
			c.mSpecLost.Add(1)
		}
	}
	if s.inflight > 0 {
		if from == s.primary {
			loser = s.backup
		} else {
			loser = s.primary
		}
	}
	return true, out, loser
}

// cancelLoser stops a speculation loser. Once the worker acks, the
// loop releases the loser's reservation: its run call is still
// draining the HTTP response, and waiting for that drain would hold
// capacity the planner could already reuse.
func (j *fleetJob) cancelLoser(a *assignment) {
	c, in := j.c, j.in
	go func() {
		if acked, _ := c.cancelRun(a); acked {
			c.mSpecCancelled.Add(1)
			in.post(event{kind: evLoserCancelled, from: a})
		}
	}()
}

// specBudget is the job's per-walker iteration budget, or 0 when it is
// effectively unbounded (no limit set) — unbounded budgets always pass
// the remaining-work guard.
func specBudget(job *JobSpec) float64 {
	if job.Engine.MaxIterations <= 0 || job.Engine.MaxRuns <= 0 {
		return 0
	}
	return float64(job.Engine.MaxIterations) * float64(job.Engine.MaxRuns)
}

// readProgress is one detector tick: it reads the progress of every
// copy of every unresolved slot. A copy that does not answer within one
// detector interval (a frozen worker), or does not hold its run (not
// registered yet, or already answered), reads 0 and so keeps the count
// it gave last.
func (j *fleetJob) readProgress() {
	c, ctx, in := j.c, j.reqCtx, j.in
	for i := range j.slots {
		s := &j.slots[i]
		if s.resolved {
			continue
		}
		for _, a := range [2]*assignment{s.primary, s.backup} {
			if a == nil || a.released {
				continue
			}
			j.reads++
			go func() {
				in.post(event{kind: evProgress, slot: s, from: a, iters: c.runProgress(ctx, a)})
			}()
		}
	}
}

// detect normalizes each slot's progress to per-walker iterations,
// takes the round's median, and launches a backup for every
// unresolved, backup-less slot lagging more than the threshold behind,
// subject to the remaining-work guard. A resolved slot counts its
// outcome, so the median keeps seeing finished work: a lone laggard
// among finished peers must still look slow. A job that has solved or
// been cancelled backs nothing up: its losers stay unresolved until
// their cancelled replies land, and a backup then would search for
// nobody.
func (j *fleetJob) detect() {
	if j.won || j.cancelled {
		return
	}
	norms := make([]float64, len(j.slots))
	for i := range j.slots {
		s := &j.slots[i]
		if s.resolved {
			s.seen = max(s.seen, outcomeIters(&s.outcome))
		}
		norms[i] = float64(s.seen) / float64(s.primary.count)
	}
	sorted := slices.Sorted(slices.Values(norms))
	median := sorted[len(sorted)/2]
	if median <= 0 {
		// Nothing has reported meaningful progress yet; there is no
		// signal to compare against.
		return
	}
	budget := specBudget(j.job)
	for i := range j.slots {
		s := &j.slots[i]
		if s.resolved || s.backup != nil {
			continue
		}
		if budget > 0 && budget-norms[i] < specMinRemaining*budget {
			// Close enough to its budget to finish on its own.
			continue
		}
		if norms[i]*j.c.specThreshold < median {
			j.backup(i)
		}
	}
}

// backup launches slot i's one backup: the whole range on one worker
// other than the primary's, so first-wins stays pairwise. A range that
// fits nowhere simply does not speculate this tick.
func (j *fleetJob) backup(i int) {
	c, s := j.c, &j.slots[i]
	c.reg.mu.Lock()
	b, ok := mostFree(c.reg.workers, s.primary.start, s.primary.count, s.primary.count, s.primary.worker)
	c.reg.mu.Unlock()
	if !ok {
		return
	}
	b.runID = fmt.Sprintf("%s-b1-s%d", j.prefix, i)
	s.backup = &b
	s.inflight++
	c.mSpecLaunched.Add(1)
	j.backups = append(j.backups, &b)
	j.launch(s, &b)
}

// runProgress reads one copy's iteration count (GET /v1/runs/{id}),
// bounded by one detector interval. It is 0 when there is no answer.
func (c *Coordinator) runProgress(ctx context.Context, a *assignment) int64 {
	ctx, cancel := context.WithTimeout(ctx, c.specInterval)
	defer cancel()
	var p RunProgress
	if err := httpjson.Call(ctx, c.client, http.MethodGet, a.worker.base+"/v1/runs/"+a.runID, nil, &p, maxReplyLen); err != nil {
		return 0
	}
	return p.Iters
}

// outcomeIters sums a resolved outcome's walker iteration counts.
func outcomeIters(out *shardOutcome) int64 {
	var n int64
	for i := range out.res.Walkers {
		n += out.res.Walkers[i].Result.Iterations
	}
	return n
}
