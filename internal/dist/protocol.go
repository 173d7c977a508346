// Package dist shards multi-walk jobs across worker processes: a
// Coordinator partitions a job's walkers into contiguous shards, ships
// each shard to a Worker over a small HTTP JSON protocol, and merges
// the per-walker statistics back into one multiwalk.Result.
//
// The paper's independent multi-walk scheme makes this split almost
// free: walkers exchange no data during the search, so the only
// messages are the shard assignment, the final per-walker statistics,
// and (in wall-clock mode) the first-solution cancellation — the same
// minimal-communication design as the paper's MPI deployment and the
// X10/Cell follow-ups.
//
// Determinism is the design center. A walker's identity — its seed
// stream and its index in the result — is derived from the *global*
// walker index (multiwalk.Shard), never from its position within a
// shard or the worker it landed on. A distributed virtual run therefore
// reproduces the single-process multiwalk.RunVirtual bit-for-bit for
// the same (problem, options, seed), regardless of how the walkers were
// partitioned, and the whole §2 performance analysis transfers
// unchanged. See DESIGN.md §8.
package dist

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// Typed protocol errors. The worker HTTP layer maps ErrBadRequest to
// 400 and ErrBusy to 429; the coordinator surfaces ErrNoCapacity when
// a job cannot be placed on the current fleet.
var (
	// ErrBadRequest marks a run request that failed structural
	// validation (malformed JSON, unknown problem or strategy,
	// inconsistent shard range). Every error returned by
	// DecodeRunRequest wraps it.
	ErrBadRequest = errors.New("dist: bad request")
	// ErrBusy reports a worker rejecting a shard that exceeds its free
	// slot capacity. The coordinator's own accounting makes this rare;
	// it exists so a worker shared by several coordinators fails fast
	// instead of oversubscribing.
	ErrBusy = errors.New("dist: worker at capacity")
	// ErrNoCapacity reports that the fleet's free slots cannot hold a
	// job's walkers.
	ErrNoCapacity = errors.New("dist: insufficient free worker capacity")
)

// Execution modes of a shard run.
const (
	// ModeRun executes the shard's walkers concurrently (multiwalk.Run):
	// the wall-clock production mode, cancelled by the coordinator as
	// soon as any shard reports a solution.
	ModeRun = "run"
	// ModeVirtual executes the shard's walkers sequentially to
	// completion (multiwalk.RunVirtual): the deterministic mode whose
	// merged result is bit-for-bit the single-process virtual run.
	ModeVirtual = "virtual"
)

// Structural caps applied at decode time, keeping an adversarial or
// corrupted request from ballooning worker memory before validation
// proper (the fuzz suite leans on these).
const (
	maxWalkers        = 1 << 20
	maxProblemParams  = 256
	maxInitialConfig  = 1 << 20
	maxRequestBodyLen = 8 << 20
	maxWorkerURL      = 4096
	// maxBoardSyncLen must hold one configuration of any instance the
	// registry builds (at most 1<<20 variables, magic-square's at its
	// MaxSize, up to ~8 JSON bytes per value) —
	// otherwise large exchange jobs would silently degrade to
	// independent walks with every relay call refused at the cap.
	maxBoardSyncLen = 16 << 20
)

// RunRequest is the worker protocol's only command: run the global
// walkers [Start, Start+Count) of a TotalWalkers-walker job.
type RunRequest struct {
	// ID names the run for POST /v1/runs/{id}/cancel and GET
	// /v1/runs/{id}. The coordinator makes it unique per (job, worker);
	// workers reject duplicates.
	ID string `json:"id"`
	// Mode is ModeRun or ModeVirtual.
	Mode string `json:"mode"`
	// Problem and Size identify the benchmark instance; every worker
	// builds its own instances from the shared registry (configurations
	// never cross the wire, only names and statistics).
	Problem string `json:"problem"`
	Size    int    `json:"size,omitempty"`
	// Params carries benchmark-specific problem parameters (the
	// finite-domain benchmarks' knobs, e.g. timetable's slots/rooms/
	// teachers). The worker's factory construction validates them
	// semantically; the protocol layer caps their number only.
	Params map[string]int `json:"params,omitempty"`
	// Seed is the job's master seed. Workers derive the full
	// TotalWalkers-long seed sequence and use the slice their shard
	// covers, so seeds never depend on the partition.
	Seed uint64 `json:"seed"`
	// TotalWalkers, Start, Count describe the shard: global walkers
	// [Start, Start+Count) of a TotalWalkers-walker job.
	TotalWalkers int `json:"total_walkers"`
	Start        int `json:"start"`
	Count        int `json:"count"`
	// Engine carries the fully resolved engine options — core.Options
	// itself, whose JSON form leaves out the per-walker Seed and the
	// process-local Monitor. The coordinator resolves tuning once and
	// ships numbers; workers apply them verbatim, so coordinator and
	// worker registries cannot drift.
	Engine core.Options `json:"engine"`
	// DeadlineMS bounds the shard run on the worker itself, so an
	// orphaned run (coordinator gone without cancelling) cannot hold
	// slots forever. 0 means no worker-side deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Exchange, when Enabled, runs the shard's walkers in the dependent
	// (communicating) multi-walk scheme on a board of the run's own,
	// which the coordinator relays the job's best through
	// (POST /v1/runs/{id}/board). Requires ModeRun: the virtual mode's
	// sequential sweeps have no concurrent peers to cooperate with.
	Exchange multiwalk.ExchangeOptions `json:"exchange,omitzero"`
	// Progress asks the worker to keep per-walker iteration counters for
	// the run and answer them on GET /v1/runs/{id} (RunProgress), so
	// the coordinator's straggler detector can compare shards. The
	// coordinator sets it on a speculating job's plan only.
	Progress bool `json:"progress,omitempty"`
}

// RunProgress answers GET /v1/runs/{id}: the run's total iterations so
// far, how many walkers have started, and the best cost seen (-1 when
// no walker has completed an iteration yet).
type RunProgress struct {
	Iters   int64 `json:"iters"`
	Walkers int64 `json:"walkers"`
	Best    int64 `json:"best"`
}

// BoardSync is one relay call of an exchange job, both ways
// (POST /v1/runs/{id}/board). The coordinator sends the job's best cost
// (Valid false while it has none), with its configuration only when the
// copy has not been sent it yet. The worker answers with its run's best
// only when that beats the cost it was sent, and with Valid false
// otherwise. A configuration crosses the hop only when it improves on
// what the receiving side holds — the paper's minimal-data-transfer
// goal, kept across process boundaries.
type BoardSync struct {
	Valid bool  `json:"valid"`
	Cost  int   `json:"cost,omitempty"`
	Cfg   []int `json:"cfg,omitempty"`
}

// WalkerStatWire is the wire form of multiwalk.WalkerStat. Walker is
// the global index; Elapsed travels as nanoseconds.
type WalkerStatWire struct {
	Walker         int   `json:"walker"`
	Solved         bool  `json:"solved"`
	Solution       []int `json:"solution,omitempty"`
	Cost           int   `json:"cost"`
	Iterations     int64 `json:"iterations"`
	Swaps          int64 `json:"swaps"`
	Assigns        int64 `json:"assigns,omitempty"`
	Flips          int64 `json:"flips,omitempty"`
	LocalMinima    int64 `json:"local_minima"`
	PlateauEscapes int64 `json:"plateau_escapes"`
	Resets         int64 `json:"resets"`
	Restarts       int   `json:"restarts"`
	Interrupted    bool  `json:"interrupted"`
	ElapsedNS      int64 `json:"elapsed_ns"`
	Adoptions      int64 `json:"adoptions,omitempty"`
	Yielded        bool  `json:"yielded,omitempty"`
}

// RunResponse reports a finished shard run.
type RunResponse struct {
	Stats     []WalkerStatWire `json:"stats"`
	Completed int              `json:"completed"`
	Truncated bool             `json:"truncated"`
	ElapsedNS int64            `json:"elapsed_ns"`
}

// cancelAck answers POST /v1/runs/{id}/cancel. Cancelled reports that
// the cancel found the run live; a run already finished, or not yet
// registered, answers false.
type cancelAck struct {
	Cancelled bool `json:"cancelled"`
}

// DecodeRunRequest reads and validates one RunRequest. Every error
// wraps ErrBadRequest, so callers (and the fuzz suite) can separate
// client mistakes from worker faults with errors.Is. Unknown fields are
// errors: a coordinator speaking a retired spelling must not get a run
// with that setting silently left at its default. So is anything but
// whitespace after the request. The body is offered to ReadJSON first
// and decoded strictly only when that refuses it, into a value of its
// own, so the request stays off the heap unless it takes that path.
func DecodeRunRequest(r io.Reader) (RunRequest, error) {
	var req RunRequest
	err := httpjson.DecodeFunc(r, maxRequestBodyLen, func(body []byte) error {
		if req.ReadJSON(body) {
			return nil
		}
		strict := new(RunRequest)
		if err := httpjson.Strict(body, strict); err != nil {
			return err
		}
		req = *strict
		return nil
	})
	if err != nil {
		return RunRequest{}, fmt.Errorf("%w: invalid JSON: %v", ErrBadRequest, err)
	}
	if err := req.Validate(); err != nil {
		return RunRequest{}, err
	}
	return req, nil
}

// Validate checks what only the protocol knows — ids, mode, the problem
// registry and its size caps, the shard arithmetic and counts —
// and hands the engine options and exchange tuning to their own
// validators (core.Options.Validate, multiwalk.ExchangeOptions.Validate).
// Errors wrap ErrBadRequest.
func (req *RunRequest) Validate() error {
	if req.ID == "" {
		return fmt.Errorf("%w: missing run id", ErrBadRequest)
	}
	if req.Mode != ModeRun && req.Mode != ModeVirtual {
		return fmt.Errorf("%w: unknown mode %q (want %q or %q)", ErrBadRequest, req.Mode, ModeRun, ModeVirtual)
	}
	info, err := problems.Describe(req.Problem)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Size < 0 || req.Size > info.MaxSize {
		return fmt.Errorf("%w: size %d outside [0, %d]", ErrBadRequest, req.Size, info.MaxSize)
	}
	if len(req.Params) > maxProblemParams {
		return fmt.Errorf("%w: %d problem parameters exceed %d", ErrBadRequest, len(req.Params), maxProblemParams)
	}
	if req.TotalWalkers < 1 || req.TotalWalkers > maxWalkers {
		return fmt.Errorf("%w: total_walkers %d outside [1, %d]", ErrBadRequest, req.TotalWalkers, maxWalkers)
	}
	// Range-check Start and Count individually before relating them to
	// TotalWalkers: the naive Start+Count > TotalWalkers comparison
	// overflows for adversarial values and waves the shard through.
	if req.Count < 1 || req.Count > req.TotalWalkers ||
		req.Start < 0 || req.Start > req.TotalWalkers-req.Count {
		return fmt.Errorf("%w: shard start=%d count=%d outside job of %d walkers", ErrBadRequest, req.Start, req.Count, req.TotalWalkers)
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline", ErrBadRequest)
	}
	if req.Exchange.Enabled {
		if err := req.Exchange.Validate(); err != nil {
			return fmt.Errorf("%w: exchange: %v", ErrBadRequest, err)
		}
		if req.Mode != ModeRun {
			return fmt.Errorf("%w: exchange requires mode %q (virtual sweeps have no concurrent peers)", ErrBadRequest, ModeRun)
		}
	}
	if len(req.Engine.InitialConfig) > maxInitialConfig {
		return fmt.Errorf("%w: engine: initial_config of %d variables exceeds %d", ErrBadRequest, len(req.Engine.InitialConfig), maxInitialConfig)
	}
	if err := req.Engine.Validate(); err != nil {
		return fmt.Errorf("%w: engine: %v", ErrBadRequest, err)
	}
	return nil
}

// statFromWire converts one wire stat back into a WalkerStat.
func statFromWire(w WalkerStatWire) multiwalk.WalkerStat {
	return multiwalk.WalkerStat{
		Walker: w.Walker,
		Result: core.Result{
			Solved:         w.Solved,
			Solution:       w.Solution,
			Cost:           w.Cost,
			Iterations:     w.Iterations,
			Swaps:          w.Swaps,
			Assigns:        w.Assigns,
			Flips:          w.Flips,
			LocalMinima:    w.LocalMinima,
			PlateauEscapes: w.PlateauEscapes,
			Resets:         w.Resets,
			Restarts:       w.Restarts,
			Interrupted:    w.Interrupted,
			Elapsed:        time.Duration(w.ElapsedNS),
		},
		Adoptions: w.Adoptions,
		Yielded:   w.Yielded,
	}
}

// resultFromWire converts a RunResponse back into a shard Result. The
// aggregate fields (winner, totals) are recomputed by CombineShards on
// the merged stats, so only the per-walker data and the shard-level
// completion accounting cross the wire. Solved is the exception: the
// coordinator acts on it before any merge (first-solution termination,
// the recovery gate), so it is re-derived here from the stats — "some
// walker of this shard solved", as multiwalk defines it.
func resultFromWire(resp RunResponse) multiwalk.Result {
	res := multiwalk.Result{
		Winner:    -1,
		Walkers:   make([]multiwalk.WalkerStat, len(resp.Stats)),
		Completed: resp.Completed,
		Truncated: resp.Truncated,
		Elapsed:   time.Duration(resp.ElapsedNS),
	}
	for i, w := range resp.Stats {
		res.Walkers[i] = statFromWire(w)
		res.Solved = res.Solved || w.Solved
	}
	return res
}
