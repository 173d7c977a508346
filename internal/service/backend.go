package service

import (
	"context"

	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// Backend executes admitted jobs' multi-walk runs. The scheduler owns
// admission (FIFO queue, slot accounting against Slots, deadlines,
// lifecycle); the backend owns execution. Two implementations exist:
// the in-process local pool (the default) and the distributed
// coordinator (internal/dist.Coordinator, selected by cmd/serve
// -workers), which shards each job's walkers over a worker fleet with
// per-worker slot accounting and cross-worker first-solution
// cancellation.
//
// Handing a Backend to New transfers ownership: Scheduler.Close closes
// the backend after the last job has drained.
type Backend interface {
	// Name identifies the backend in logs and metrics.
	Name() string
	// Slots is the backend's total walker-slot capacity; the
	// scheduler's admission control counts against it.
	Slots() int
	// RunJob executes one job. problem/size/params name the instance
	// for backends that rebuild it elsewhere; factory serves in-process
	// backends. opts carries walker count, seed, engine options and
	// the Progress hook (which remote backends may replay from final
	// statistics instead of streaming).
	RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error)
	// Close releases backend resources once the scheduler has drained.
	Close()
}

// CapacityNotifier is implemented by backends whose Slots() varies over
// time (an elastic worker fleet). The scheduler registers a callback at
// construction; the backend invokes it — from any goroutine, holding no
// scheduler-visible locks — whenever capacity may have changed, and the
// scheduler re-reads Slots() in response. Detected structurally so
// Backend implementations outside this package need no import of it.
type CapacityNotifier interface {
	NotifyCapacity(func())
}

// MetricsProvider is implemented by backends with telemetry of their
// own (fleet membership, shard recovery, failover counters). The map is
// merged into Stats.Fleet and served from /metrics.
type MetricsProvider interface {
	BackendMetrics() map[string]int64
}

// localBackend is the default execution backend: one goroutine per
// walker in this process, the paper's one-walker-per-core model sized
// to GOMAXPROCS.
type localBackend struct {
	slots int
}

func (b *localBackend) Name() string { return "local" }
func (b *localBackend) Slots() int   { return b.slots }
func (b *localBackend) Close()       {}

func (b *localBackend) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	return multiwalk.Run(ctx, multiwalk.Factory(factory), opts)
}
