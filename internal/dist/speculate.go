package dist

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
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
//   - a progress feed: speculation-enabled shard requests carry a
//     report endpoint, and workers POST per-shard iteration counts to
//     it every ProgressMS;
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

// shardProg is one tracked shard run's live progress, fed by worker
// reports and finalized from the shard outcome when it resolves.
type shardProg struct {
	start, count int
	iters        int64
	walkers      int64
	best         int64
	since        time.Time // tracking start
	updated      time.Time // last report; zero until the first arrives
	resolved     bool
}

// trackShard registers a shard run with the progress table. Only
// tracked runs accept reports — everything else is dropped, so unknown
// or stale run ids cannot grow the table.
func (c *Coordinator) trackShard(runID string, start, count int) {
	c.progMu.Lock()
	c.prog[runID] = &shardProg{start: start, count: count, best: -1, since: time.Now()}
	c.progMu.Unlock()
}

// recordShardProgress is the hub's report callback. Reports for
// unknown or already-resolved runs are dropped; iteration counts are
// monotone, so a report reordered behind a larger one is ignored.
func (c *Coordinator) recordShardProgress(runID string, iters, walkers, best int64) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	e := c.prog[runID]
	if e == nil || e.resolved {
		return
	}
	if iters >= e.iters {
		e.iters, e.walkers, e.best = iters, walkers, best
	}
	e.updated = time.Now()
}

// progressDone finalizes a tracked run with its outcome's iteration
// total, so the job median keeps seeing finished shards — a lone
// laggard among finished peers must still look slow.
func (c *Coordinator) progressDone(runID string, finalIters int64) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	if e := c.prog[runID]; e != nil {
		e.resolved = true
		if finalIters > e.iters {
			e.iters = finalIters
		}
		e.updated = time.Now()
	}
}

// clearJobProgress drops every tracked run whose id carries the job's
// prefix — run() cleanup, so the table holds in-flight jobs only.
func (c *Coordinator) clearJobProgress(prefix string) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	for id := range c.prog {
		if strings.HasPrefix(id, prefix) {
			delete(c.prog, id)
		}
	}
}

// progressGauges folds the table into the two /metrics gauges: tracked
// unresolved shards and the oldest report age (milliseconds since the
// last report, or since tracking started for shards that never
// reported — exactly the shards a straggler hunt cares about).
func (c *Coordinator) progressGauges(now time.Time) (tracked, maxAgeMS int64) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	for _, e := range c.prog {
		if e.resolved {
			continue
		}
		tracked++
		ref := e.updated
		if ref.IsZero() {
			ref = e.since
		}
		if age := now.Sub(ref).Milliseconds(); age > maxAgeMS {
			maxAgeMS = age
		}
	}
	return tracked, maxAgeMS
}

// ShardProgressInfo is one tracked in-flight shard in the fleet view
// (GET /v1/fleet): which walker range it covers, how far it has come,
// and how stale its last report is.
type ShardProgressInfo struct {
	Run     string `json:"run"`
	Start   int    `json:"start"`
	Count   int    `json:"count"`
	Iters   int64  `json:"iters"`
	Walkers int64  `json:"walkers"`
	Best    int64  `json:"best"`
	AgeMS   int64  `json:"age_ms"`
}

// ProgressSnapshot lists the tracked unresolved shard runs, sorted by
// run id for a stable fleet view.
func (c *Coordinator) ProgressSnapshot() []ShardProgressInfo {
	now := time.Now()
	c.progMu.Lock()
	out := make([]ShardProgressInfo, 0, len(c.prog))
	for id, e := range c.prog {
		if e.resolved {
			continue
		}
		ref := e.updated
		if ref.IsZero() {
			ref = e.since
		}
		out = append(out, ShardProgressInfo{
			Run: id, Start: e.start, Count: e.count,
			Iters: e.iters, Walkers: e.walkers, Best: e.best,
			AgeMS: now.Sub(ref).Milliseconds(),
		})
	}
	c.progMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

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

// detectStragglers is the per-job detector loop: every tick it
// normalizes each slot's progress to per-walker iterations, takes the
// job median, and launches a backup for every unresolved, backup-less
// slot lagging more than the threshold behind — subject to the
// minimum-age and remaining-work guards. It exits when the job is done
// or the dispatch context dies.
func (c *Coordinator) detectStragglers(ctx context.Context, done <-chan struct{}, job *JobSpec, slots []specSlot, launch func(i int)) {
	started := time.Now()
	budget := specBudget(job)
	tick := time.NewTicker(c.specInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-done:
			return
		case <-tick.C:
		}
		if time.Since(started) < c.specAfter {
			continue
		}
		norms := make([]float64, len(slots))
		type candidate struct{ i int }
		var cands []candidate
		for i := range slots {
			s := &slots[i]
			s.mu.Lock()
			resolved := s.resolved
			pID := s.primary.runID
			var bID string
			if s.backup != nil {
				bID = s.backup.runID
			}
			count := s.primary.count
			s.mu.Unlock()

			c.progMu.Lock()
			var iters int64
			if e := c.prog[pID]; e != nil {
				iters = e.iters
			}
			if bID != "" {
				if e := c.prog[bID]; e != nil && e.iters > iters {
					iters = e.iters
				}
			}
			c.progMu.Unlock()
			norms[i] = float64(iters) / float64(count)
			if resolved || bID != "" {
				continue
			}
			if budget > 0 && budget-norms[i] < specMinRemaining*budget {
				// Close enough to its budget to finish on its own.
				continue
			}
			cands = append(cands, candidate{i})
		}
		sorted := append([]float64(nil), norms...)
		sort.Float64s(sorted)
		median := sorted[len(sorted)/2]
		if median <= 0 {
			// Nothing has reported meaningful progress yet; there is no
			// signal to compare against.
			continue
		}
		for _, cd := range cands {
			if norms[cd.i]*c.specThreshold < median {
				launch(cd.i)
			}
		}
	}
}

// outcomeIters sums a resolved outcome's walker iteration counts (the
// final value the progress table records for the run).
func outcomeIters(out *shardOutcome) int64 {
	var n int64
	for i := range out.res.Walkers {
		n += out.res.Walkers[i].Result.Iterations
	}
	return n
}
