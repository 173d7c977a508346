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
// stream, its portfolio entry, its index in the result — is derived
// from the *global* walker index (multiwalk.Shard), never from its
// position within a shard or the worker it landed on. A distributed
// virtual run therefore reproduces the single-process
// multiwalk.RunVirtual bit-for-bit for the same (problem, options,
// seed), regardless of how the walkers were partitioned, and the whole
// §2 performance analysis transfers unchanged. See DESIGN.md §8.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
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
	maxSize           = 1 << 20
	maxPortfolio      = 4096
	maxProblemParams  = 256
	maxInitialConfig  = 1 << 20
	maxRequestBodyLen = 8 << 20
	maxBoardURL       = 4096
	// maxBoardSyncLen must hold one configuration of any protocol-legal
	// instance (n up to maxSize, up to ~8 JSON bytes per value) —
	// otherwise large exchange jobs would silently degrade to
	// independent walks with every sync rejected at the cap.
	maxBoardSyncLen = 16 << 20
)

// RunRequest is the worker protocol's only command: run the global
// walkers [Start, Start+Count) of a TotalWalkers-walker job.
type RunRequest struct {
	// ID names the run for POST /v1/runs/{id}/cancel. The coordinator
	// makes it unique per (job, worker); workers reject duplicates.
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
	// Portfolio, when non-empty, is the job's heterogeneous portfolio.
	// Entry assignment uses the global walker index.
	Portfolio []multiwalk.PortfolioEntry `json:"portfolio,omitempty"`
	// DeadlineMS bounds the shard run on the worker itself, so an
	// orphaned run (coordinator gone without cancelling) cannot hold
	// slots forever. 0 means no worker-side deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Exchange, when Enabled, runs the shard's walkers in the dependent
	// (communicating) multi-walk scheme against the job-wide global
	// board at Board. Requires ModeRun: the virtual mode's sequential
	// sweeps have no concurrent peers to cooperate with.
	Exchange multiwalk.ExchangeOptions `json:"exchange,omitzero"`
	// Board is the coordinator-hosted global board endpoint for the job
	// (combined publish-and-fetch, POST BoardSync). Required when
	// Exchange is enabled; every shard of one job receives the same URL.
	Board string `json:"board,omitempty"`
	// BoardSyncMS is the worker cache's board sync period in
	// milliseconds — how often the write-through cache reconciles with
	// the global board. The coordinator always sets it on an exchange
	// shard (CoordinatorConfig.BoardSync); 0 selects 50ms. The hot loop
	// never waits on this: walkers always read and write the local cache.
	BoardSyncMS int64 `json:"board_sync_ms,omitempty"`
	// ProgressURL, when set, asks the worker to report the shard's
	// progress (iteration counts) periodically so the coordinator's
	// straggler detector can compare shards (POST ShardProgressReport).
	// ProgressMS is the report period in milliseconds (0 selects the
	// worker default, 250ms). Reports are advisory: losing them only
	// blinds the detector.
	ProgressURL string `json:"progress_url,omitempty"`
	ProgressMS  int64  `json:"progress_ms,omitempty"`
}

// ShardProgressReport is the body of one shard progress report (POST
// {ProgressURL}): the run's total iterations so far, how many walkers
// have started, and the best cost seen (-1 when no walker has completed
// an iteration yet).
type ShardProgressReport struct {
	Iters   int64 `json:"iters"`
	Walkers int64 `json:"walkers"`
	Best    int64 `json:"best"`
}

// BoardSync is one combined publish-and-fetch exchange against a job's
// global board: the request carries the caller's current best (Valid
// false when it has none yet), the response the global best after the
// merge. One round trip per sync period is the scheme's entire network
// footprint — the paper's minimal-data-transfer goal, kept across
// process boundaries.
// Gen is the board's generation counter: the hub bumps it on every
// accepted improvement and stamps responses with it. A request whose
// Gen matches the hub's current generation receives a compact
// "unchanged" answer (Valid false, no Cfg, same Gen) instead of a
// re-sent configuration; peers that never set Gen (older workers)
// always get the full response, so the field is purely an
// optimization.
type BoardSync struct {
	Valid bool   `json:"valid"`
	Cost  int    `json:"cost,omitempty"`
	Gen   uint64 `json:"gen,omitempty"`
	Cfg   []int  `json:"cfg,omitempty"`
}

// WalkerStatWire is the wire form of multiwalk.WalkerStat. Walker is
// the global index; Elapsed travels as nanoseconds.
type WalkerStatWire struct {
	Walker         int    `json:"walker"`
	Entry          int    `json:"entry"`
	Solved         bool   `json:"solved"`
	Solution       []int  `json:"solution,omitempty"`
	Cost           int    `json:"cost"`
	Strategy       string `json:"strategy,omitempty"`
	Iterations     int64  `json:"iterations"`
	Swaps          int64  `json:"swaps"`
	Assigns        int64  `json:"assigns,omitempty"`
	Flips          int64  `json:"flips,omitempty"`
	LocalMinima    int64  `json:"local_minima"`
	PlateauEscapes int64  `json:"plateau_escapes"`
	Resets         int64  `json:"resets"`
	Restarts       int    `json:"restarts"`
	Interrupted    bool   `json:"interrupted"`
	ElapsedNS      int64  `json:"elapsed_ns"`
	Adoptions      int64  `json:"adoptions,omitempty"`
	Yielded        bool   `json:"yielded,omitempty"`
}

// RunResponse reports a finished shard run.
type RunResponse struct {
	Stats     []WalkerStatWire `json:"stats"`
	Completed int              `json:"completed"`
	Truncated bool             `json:"truncated"`
	ElapsedNS int64            `json:"elapsed_ns"`
}

// DecodeRunRequest reads and validates one RunRequest. Every error
// wraps ErrBadRequest, so callers (and the fuzz suite) can separate
// client mistakes from worker faults with errors.Is.
func DecodeRunRequest(r io.Reader) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBodyLen))
	if err := dec.Decode(&req); err != nil {
		return RunRequest{}, fmt.Errorf("%w: invalid JSON: %v", ErrBadRequest, err)
	}
	if err := req.Validate(); err != nil {
		return RunRequest{}, err
	}
	return req, nil
}

// Validate checks what only the protocol knows — ids, mode, the problem
// registry, the shard arithmetic, size caps and URLs — and hands the
// engine options and exchange tuning to their own validators
// (core.Options.Validate, multiwalk.ExchangeOptions.Validate). Errors
// wrap ErrBadRequest.
func (req *RunRequest) Validate() error {
	if req.ID == "" {
		return fmt.Errorf("%w: missing run id", ErrBadRequest)
	}
	if req.Mode != ModeRun && req.Mode != ModeVirtual {
		return fmt.Errorf("%w: unknown mode %q (want %q or %q)", ErrBadRequest, req.Mode, ModeRun, ModeVirtual)
	}
	if _, err := problems.Describe(req.Problem); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Size < 0 || req.Size > maxSize {
		return fmt.Errorf("%w: size %d outside [0, %d]", ErrBadRequest, req.Size, maxSize)
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
	if len(req.Portfolio) > maxPortfolio {
		return fmt.Errorf("%w: portfolio of %d entries exceeds %d", ErrBadRequest, len(req.Portfolio), maxPortfolio)
	}
	if req.Exchange.Enabled {
		if err := req.Exchange.Validate(); err != nil {
			return fmt.Errorf("%w: exchange: %v", ErrBadRequest, err)
		}
		if req.Mode != ModeRun {
			return fmt.Errorf("%w: exchange requires mode %q (virtual sweeps have no concurrent peers)", ErrBadRequest, ModeRun)
		}
		if req.Board == "" {
			return fmt.Errorf("%w: exchange enabled without a board URL", ErrBadRequest)
		}
	}
	if req.BoardSyncMS < 0 {
		return fmt.Errorf("%w: negative board_sync_ms", ErrBadRequest)
	}
	if len(req.Board) > maxBoardURL {
		return fmt.Errorf("%w: board URL of %d bytes exceeds %d", ErrBadRequest, len(req.Board), maxBoardURL)
	}
	if len(req.ProgressURL) > maxBoardURL {
		return fmt.Errorf("%w: progress URL of %d bytes exceeds %d", ErrBadRequest, len(req.ProgressURL), maxBoardURL)
	}
	if req.ProgressMS < 0 {
		return fmt.Errorf("%w: negative progress_ms", ErrBadRequest)
	}
	if err := validateEngine(&req.Engine); err != nil {
		return fmt.Errorf("%w: engine: %v", ErrBadRequest, err)
	}
	for i := range req.Portfolio {
		if req.Portfolio[i].Weight < 0 {
			return fmt.Errorf("%w: portfolio[%d]: negative weight", ErrBadRequest, i)
		}
		if err := validateEngine(&req.Portfolio[i].Engine); err != nil {
			return fmt.Errorf("%w: portfolio[%d]: %v", ErrBadRequest, i, err)
		}
	}
	return nil
}

// validateEngine is the engine's own validator behind the protocol's
// cap on the initial configuration's length.
func validateEngine(o *core.Options) error {
	if len(o.InitialConfig) > maxInitialConfig {
		return fmt.Errorf("initial_config of %d variables exceeds %d", len(o.InitialConfig), maxInitialConfig)
	}
	return o.Validate()
}

// wireStat converts one walker stat to its wire form.
func wireStat(ws multiwalk.WalkerStat) WalkerStatWire {
	r := ws.Result
	return WalkerStatWire{
		Walker:         ws.Walker,
		Entry:          ws.Entry,
		Solved:         r.Solved,
		Solution:       r.Solution,
		Cost:           r.Cost,
		Strategy:       r.Strategy,
		Iterations:     r.Iterations,
		Swaps:          r.Swaps,
		Assigns:        r.Assigns,
		Flips:          r.Flips,
		LocalMinima:    r.LocalMinima,
		PlateauEscapes: r.PlateauEscapes,
		Resets:         r.Resets,
		Restarts:       r.Restarts,
		Interrupted:    r.Interrupted,
		ElapsedNS:      int64(r.Elapsed),
		Adoptions:      ws.Adoptions,
		Yielded:        ws.Yielded,
	}
}

// statFromWire converts one wire stat back into a WalkerStat.
func statFromWire(w WalkerStatWire) multiwalk.WalkerStat {
	return multiwalk.WalkerStat{
		Walker: w.Walker,
		Entry:  w.Entry,
		Result: core.Result{
			Solved:         w.Solved,
			Solution:       w.Solution,
			Cost:           w.Cost,
			Strategy:       w.Strategy,
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

// wireResult converts a shard Result into a RunResponse.
func wireResult(res multiwalk.Result) RunResponse {
	out := RunResponse{
		Stats:     make([]WalkerStatWire, len(res.Walkers)),
		Completed: res.Completed,
		Truncated: res.Truncated,
		ElapsedNS: int64(res.Elapsed),
	}
	for i, ws := range res.Walkers {
		out.Stats[i] = wireStat(ws)
	}
	return out
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
