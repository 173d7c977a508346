package dist

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

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
// Three pieces:
//
//   - progress reads: speculation-enabled shard requests ask the worker
//     to keep per-walker counters ("progress": true), and every detector
//     tick reads each unresolved copy's count with GET /v1/runs/{id},
//     on the same fleet client as run and cancel — the coordinator
//     calls, the worker answers, and no second listener is opened;
//   - a detector: per job, compare each unresolved shard's per-walker
//     iteration count against the job median; lagging more than
//     SpeculateThreshold behind (with a minimum job age, a
//     remaining-work guard, and at most one backup per shard) launches
//     a backup on a free healthy worker the primary is not on;
//   - first-wins resolution: every shard is a slot (coordinator.go's
//     dispatch runs them all) whose first delivered outcome wins; the
//     loser is cancelled (releasing its reservation the moment the
//     worker acks) and its late result is dropped before CombineShards
//     ever sees it, so walker stats are never double-counted.

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
	mu       sync.Mutex
	primary  *assignment
	backup   *assignment // nil until a backup launches
	inflight int
	resolved bool
	outcome  shardOutcome
	pending  *shardOutcome // first failed delivery, held for the other copy
}

// deliverSpec delivers one copy's outcome to its slot. It returns
// whether this delivery resolved the slot, the resolved outcome, and
// the loser still in flight (to cancel), if any.
func (c *Coordinator) deliverSpec(s *specSlot, from *assignment, out shardOutcome) (resolvedNow bool, final shardOutcome, loser *assignment) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// cancelLoser stops a speculation loser and, once the worker acks the
// cancel, releases its slot reservation immediately — the loser's own
// dispatch goroutine is still draining the HTTP response, and waiting
// for that drain would hold capacity the planner could already reuse
// (releases are idempotent, so the eventual second release is a no-op).
func (c *Coordinator) cancelLoser(a *assignment) {
	if acked, _ := c.cancelRun(a); acked {
		c.mSpecCancelled.Add(1)
		c.releaseOne(a)
	}
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

// detectStragglers is the per-job detector loop: every tick past the
// minimum age it refreshes each slot's progress (readProgress),
// normalizes it to per-walker iterations, takes the job median, and
// launches a backup for every unresolved, backup-less slot lagging more
// than the threshold behind — subject to the remaining-work guard. It
// exits when ctx dies, which dispatch does when the round is over.
func (c *Coordinator) detectStragglers(ctx context.Context, job *JobSpec, slots []specSlot, launch func(i int)) {
	started := time.Now()
	budget := specBudget(job)
	tick := time.NewTicker(c.specInterval)
	defer tick.Stop()
	seen := make([]int64, len(slots))
	open := make([]bool, len(slots))
	norms := make([]float64, len(slots))
	sorted := make([]float64, len(slots))
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if time.Since(started) < c.specAfter {
			continue
		}
		c.readProgress(ctx, slots, seen, open)
		if ctx.Err() != nil {
			return
		}
		for i := range slots {
			norms[i] = float64(seen[i]) / float64(slots[i].primary.count)
		}
		copy(sorted, norms)
		sort.Float64s(sorted)
		median := sorted[len(sorted)/2]
		if median <= 0 {
			// Nothing has reported meaningful progress yet; there is no
			// signal to compare against.
			continue
		}
		for i := range slots {
			if !open[i] {
				continue
			}
			if budget > 0 && budget-norms[i] < specMinRemaining*budget {
				// Close enough to its budget to finish on its own.
				continue
			}
			if norms[i]*c.specThreshold < median {
				launch(i)
			}
		}
	}
}

// readProgress refreshes seen, each slot's highest iteration count so
// far over both its copies, and open, whether the slot may still gain a
// backup (unresolved, none yet). A resolved slot counts its outcome, so
// the median keeps seeing finished work — a lone laggard among finished
// peers must still look slow. The copies of every unresolved slot are
// read at once; a copy that does not answer within one detector
// interval (a frozen worker), or does not hold its run (not registered
// yet, or already answered), keeps the count it gave last.
func (c *Coordinator) readProgress(ctx context.Context, slots []specSlot, seen []int64, open []bool) {
	got := make([]int64, 2*len(slots)) // primary, backup per slot
	var wg sync.WaitGroup
	for i := range slots {
		s := &slots[i]
		s.mu.Lock()
		resolved, copies := s.resolved, [2]*assignment{s.primary, s.backup}
		if resolved {
			seen[i] = max(seen[i], outcomeIters(&s.outcome))
		}
		s.mu.Unlock()
		open[i] = !resolved && copies[1] == nil
		if resolved {
			continue
		}
		for k, a := range copies {
			if a == nil {
				continue
			}
			wg.Add(1)
			go func(dst *int64) {
				defer wg.Done()
				*dst = c.runProgress(ctx, a)
			}(&got[2*i+k])
		}
	}
	wg.Wait()
	for k, n := range got {
		seen[k/2] = max(seen[k/2], n)
	}
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
