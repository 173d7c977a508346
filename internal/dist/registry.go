package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Worker lifecycle states. A worker joins healthy, moves to suspect on
// its first missed probe or transport failure, to dead on the next, and
// back to healthy on any successful probe or heartbeat. Draining is the
// graceful-leave state: no new shards are dispatched, in-flight shards
// finish, and the worker drops out of the capacity count immediately.
type workerState int

const (
	stateHealthy workerState = iota
	stateSuspect
	stateDead
	stateDraining
)

func (s workerState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	case stateDead:
		return "dead"
	case stateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// workerRef is one registered worker plus its slot accounting and
// health bookkeeping. All mutable fields are guarded by registry.mu.
type workerRef struct {
	index int
	base  string
	slots int
	busy  int // coordinator-side slot reservations

	state    workerState
	lastSeen time.Time // last successful probe or push heartbeat
	fails    int       // consecutive failed probes
}

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	URL   string `json:"url"`
	Slots int    `json:"slots"`
	Busy  int    `json:"busy"`
	State string `json:"state"`
}

// registry is the coordinator's fleet membership table. Join order is
// stable (index) so planning stays deterministic for a fixed fleet; a
// worker that leaves and rejoins under the same URL keeps its row.
// Capacity-affecting transitions invoke onChange (outside the lock) so
// the serving layer can resize its admission pool.
type registry struct {
	mu      sync.Mutex
	workers []*workerRef
	byURL   map[string]*workerRef

	onChange atomic.Value // func()

	mJoins    atomic.Int64
	mLeaves   atomic.Int64
	mFailures atomic.Int64 // probe/transport failures observed
}

func newRegistry() *registry {
	return &registry{byURL: make(map[string]*workerRef)}
}

// notify invokes the capacity-change callback, if any. Never called
// with r.mu held: the callback may re-enter the registry (via
// Coordinator.Slots) or take scheduler locks.
func (r *registry) notify() {
	if f, ok := r.onChange.Load().(func()); ok && f != nil {
		f()
	}
}

// setOnChange installs the capacity-change callback.
func (r *registry) setOnChange(f func()) {
	r.onChange.Store(f)
}

// upsert registers a worker (or refreshes a returning one), marking it
// healthy. Returns true when the call changed membership or capacity.
func (r *registry) upsert(base string, slots int, now time.Time) bool {
	r.mu.Lock()
	w, ok := r.byURL[base]
	changed := false
	if !ok {
		w = &workerRef{index: len(r.workers), base: base}
		r.workers = append(r.workers, w)
		r.byURL[base] = w
		r.mJoins.Add(1)
		changed = true
	}
	if w.slots != slots || w.state != stateHealthy {
		changed = true
	}
	w.slots = slots
	w.state = stateHealthy
	w.fails = 0
	w.lastSeen = now
	r.mu.Unlock()
	if changed {
		r.notify()
	}
	return changed
}

// heartbeat refreshes a registered worker's liveness and capability.
// Returns false for unknown workers — the agent's cue to re-register.
func (r *registry) heartbeat(base string, slots int, draining bool, now time.Time) bool {
	r.mu.Lock()
	w, ok := r.byURL[base]
	if !ok {
		r.mu.Unlock()
		return false
	}
	changed := false
	if slots >= 1 && w.slots != slots {
		w.slots = slots
		changed = true
	}
	target := stateHealthy
	if draining {
		target = stateDraining
	}
	if w.state != target {
		if target == stateDraining {
			r.mLeaves.Add(1)
		}
		w.state = target
		changed = true
	}
	w.fails = 0
	w.lastSeen = now
	r.mu.Unlock()
	if changed {
		r.notify()
	}
	return true
}

// deregister marks a worker draining: no new dispatch, in-flight shards
// finish. Returns false for unknown workers.
func (r *registry) deregister(base string) bool {
	r.mu.Lock()
	w, ok := r.byURL[base]
	if ok && w.state != stateDraining {
		w.state = stateDraining
		r.mLeaves.Add(1)
	}
	r.mu.Unlock()
	if ok {
		r.notify()
	}
	return ok
}

// reportFailure records a transport-level failure against a worker (a
// shard dispatch that died mid-flight): the worker is immediately
// suspect, and dead on a repeat. The health monitor's next successful
// probe (or a push heartbeat) brings it back.
func (r *registry) reportFailure(w *workerRef) {
	r.mFailures.Add(1)
	r.mu.Lock()
	changed := false
	switch w.state {
	case stateHealthy:
		w.state = stateSuspect
		changed = true
	case stateSuspect:
		w.state = stateDead
		changed = true
	}
	w.fails++
	r.mu.Unlock()
	if changed {
		r.notify()
	}
}

// probeOK records a successful health probe.
func (r *registry) probeOK(w *workerRef, slots int, now time.Time) {
	r.mu.Lock()
	changed := w.state == stateSuspect || w.state == stateDead || w.slots != slots
	if w.state != stateDraining {
		w.state = stateHealthy
	}
	w.slots = slots
	w.fails = 0
	w.lastSeen = now
	r.mu.Unlock()
	if changed {
		r.notify()
	}
}

// stale returns the workers whose lastSeen is older than maxAge — the
// monitor's probe targets. Draining workers are skipped (they are
// leaving; their health no longer gates anything).
func (r *registry) stale(maxAge time.Duration, now time.Time) []*workerRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*workerRef
	for _, w := range r.workers {
		if w.state == stateDraining {
			continue
		}
		if now.Sub(w.lastSeen) >= maxAge {
			out = append(out, w)
		}
	}
	return out
}

// capacity is the fleet's dispatchable walker-slot total: healthy and
// suspect workers count (suspect is a transient, usually recoverable
// state), dead and draining do not.
func (r *registry) capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, w := range r.workers {
		if w.state == stateHealthy || w.state == stateSuspect {
			total += w.slots
		}
	}
	return total
}

// size returns the total number of registered workers (any state).
func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// snapshot returns the fleet table for diagnostics.
func (r *registry) snapshot() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, len(r.workers))
	for i, w := range r.workers {
		out[i] = WorkerInfo{URL: w.base, Slots: w.slots, Busy: w.busy, State: w.state.String()}
	}
	return out
}

// counts tallies workers per state for the metrics map.
func (r *registry) counts() (healthy, suspect, dead, draining int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		switch w.state {
		case stateHealthy:
			healthy++
		case stateSuspect:
			suspect++
		case stateDead:
			dead++
		case stateDraining:
			draining++
		}
	}
	return
}

// dispatchable re-validates a worker at dispatch time: its current
// health, read fresh from the registry rather than from the plan-time
// snapshot. Suspect workers stay dispatchable — the in-flight failure
// that made them suspect may have been another job's — but dead and
// draining workers are not.
func (r *registry) dispatchable(w *workerRef) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return w.state == stateHealthy || w.state == stateSuspect
}
