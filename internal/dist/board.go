package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
)

// defaultBoardSync is the worker cache's board reconciliation period
// when CoordinatorConfig.BoardSync is 0, and what a hand-written run
// request carrying no board_sync_ms gets. 50ms keeps cooperation
// latency well under a typical exchange period's wall-clock while
// staying negligible against the protocol's other traffic.
const defaultBoardSync = 50 * time.Millisecond

// boardSyncTimeout bounds one publish-and-fetch round trip. A sync
// that misses its window is simply retried at the next tick — the
// scheme is best-effort by design, so a slow board must never back up
// into the worker.
const boardSyncTimeout = 5 * time.Second

// boardHub is the coordinator side of the cross-worker exchange
// scheme: one global multiwalk.Board per exchange-enabled job, served
// over a lazily started HTTP listener that workers sync their local
// caches against (POST /v1/runs/{id}/board, combined publish-and-
// fetch). The hub is lazy so fleets that never run dependent jobs pay
// nothing — no port, no goroutine.
type boardHub struct {
	addr      string // listen address; "" selects 127.0.0.1:0
	advertise string // advertised base URL; "" derives from the listener

	mu     sync.Mutex
	ln     net.Listener
	srv    *http.Server
	base   string
	boards map[string]*boardEntry

	// Traffic accounting sampled by telemetry: sync round trips and
	// total board body bytes each way.
	mHTTPSyncs atomic.Int64
	mRxBytes   atomic.Int64
	mTxBytes   atomic.Int64

	// onShardProgress, when set, receives every shard progress report
	// the hub hears (POST /v1/runs/{id}/progress). Set once by the
	// owning Coordinator before any server starts; the callback must be
	// cheap and concurrency-safe.
	onShardProgress func(runID string, iters, walkers, best int64)
}

// boardEntry is one job's global board plus the probe instance the hub
// uses to verify publishes. The probe is a live problem encoding whose
// Cost call may mutate cached internal state; mu serializes it, and
// also guards the generation counter so "verify, publish, bump gen" is
// atomic against concurrent syncs.
type boardEntry struct {
	board multiwalk.Board
	probe core.Problem

	mu  sync.Mutex
	gen uint64
}

// merge verifies and applies one publish claim, returning a rejection
// reason for claims that failed verification. A claim that does not
// improve the current best is a benign no-op, not an error.
//
// The board crosses trust boundaries between processes, and its
// contents steer every walker of the job, so the claim is verified
// rather than trusted: the configuration must be well-formed for the
// job's instance (core.ValidateConfig), and the cost must be the
// probe-recomputed cost of that configuration. Without the
// recomputation one corrupt publisher could post a fake cost 0 and
// stand the whole fleet down, or a fake low cost that monotonically
// blocks every real elite. Honest publishes always match: the engine's
// incrementally maintained cost equals the recomputed one (pinned by
// the core equivalence suites).
func (e *boardEntry) merge(valid bool, cost int, cfg []int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, _, curOK := e.board.Snapshot()
	if !valid || (curOK && cost >= cur) {
		// Only a claim that would improve the board is worth verifying:
		// the board keeps strict improvements only, so skipping the rest
		// (the steady-state case) is behavior-identical and saves a full
		// cost recomputation per sync.
		return nil
	}
	if err := core.ValidateConfig(e.probe, cfg); err != nil {
		return fmt.Errorf("board sync configuration rejected: %v", err)
	}
	actual := e.probe.Cost(cfg)
	if actual != cost {
		return fmt.Errorf("board sync cost %d does not match the configuration's actual cost %d", cost, actual)
	}
	e.board.Publish(actual, cfg)
	e.gen++
	return nil
}

// state snapshots the entry's global best and generation together.
func (e *boardEntry) state() (cost int, cfg []int, ok bool, gen uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cost, cfg, ok = e.board.Snapshot()
	return cost, cfg, ok, e.gen
}

func newBoardHub(addr, advertise string) *boardHub {
	return &boardHub{
		addr:      addr,
		advertise: advertise,
		boards:    make(map[string]*boardEntry),
	}
}

// open registers a fresh global board for a job, starting the board
// server if this is the fleet's first exchange-enabled job. probe is a
// private instance of the job's problem, used to verify every publish
// (see handleSync). It returns the board's sync URL (for
// RunRequest.Board), the board handle (for inspecting the merged
// global state — job results flow back through shard responses, not
// the board, so the coordinator itself discards it), and a release
// function dropping the board once every shard has unwound.
func (h *boardHub) open(jobID string, probe core.Problem) (url string, board multiwalk.Board, release func(), err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensureServerLocked(); err != nil {
		return "", nil, nil, err
	}
	if _, dup := h.boards[jobID]; dup {
		return "", nil, nil, fmt.Errorf("dist: board for job %q already open", jobID)
	}
	board = multiwalk.NewLocalBoard()
	h.boards[jobID] = &boardEntry{board: board, probe: probe}
	release = func() {
		h.mu.Lock()
		delete(h.boards, jobID)
		h.mu.Unlock()
	}
	return h.base + "/v1/runs/" + jobID + "/board", board, release, nil
}

// lookup resolves a job's board entry, or nil.
func (h *boardHub) lookup(jobID string) *boardEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.boards[jobID]
}

// ensureServerLocked starts the board listener and server on first
// use. Callers hold h.mu.
func (h *boardHub) ensureServerLocked() error {
	if h.ln != nil {
		return nil
	}
	addr := h.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: starting board server on %s: %w", addr, err)
	}
	h.ln = ln
	if h.advertise != "" {
		h.base = strings.TrimRight(h.advertise, "/")
	} else {
		h.base = "http://" + ln.Addr().String()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs/{id}/board", h.handleSync)
	mux.HandleFunc("POST /v1/runs/{id}/progress", h.handleProgress)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	h.srv = srv
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// ensureServer starts the hub's HTTP server if needed and returns its
// base URL — the straggler detector reuses the board listener for the
// progress route, so speculation-enabled fleets pay for one listener,
// not two.
func (h *boardHub) ensureServer() (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensureServerLocked(); err != nil {
		return "", err
	}
	return h.base, nil
}

// maxProgressBodyLen caps one progress report body: three integers.
const maxProgressBodyLen = 4096

// handleProgress records one shard progress report. Reports are
// advisory — unknown run ids are acknowledged and dropped, since a
// straggling report racing the shard's own completion is benign.
func (h *boardHub) handleProgress(w http.ResponseWriter, r *http.Request) {
	var rep ShardProgressReport
	if err := json.NewDecoder(io.LimitReader(r.Body, maxProgressBodyLen)).Decode(&rep); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid progress report: " + err.Error()})
		return
	}
	if cb := h.onShardProgress; cb != nil {
		cb(r.PathValue("id"), rep.Iters, rep.Walkers, rep.Best)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSync merges a worker cache's best into the job's global board
// and answers with the global best — one round trip carrying at most
// one configuration each way. A request whose Gen matches the board's
// current generation gets a compact "unchanged" answer instead of the
// configuration it already holds.
func (h *boardHub) handleSync(w http.ResponseWriter, r *http.Request) {
	h.mHTTPSyncs.Add(1)
	if r.ContentLength > 0 {
		h.mRxBytes.Add(r.ContentLength)
	}
	id := r.PathValue("id")
	entry := h.lookup(id)
	if entry == nil {
		// The job finished (or never existed): benign for a straggling
		// sync racing the shard responses, but the worker has nothing to
		// gain from retrying against this board.
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown board " + id})
		return
	}
	var msg BoardSync
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBoardSyncLen)).Decode(&msg); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid board sync: " + err.Error()})
		return
	}
	if err := entry.merge(msg.Valid, msg.Cost, msg.Cfg); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	cost, cfg, ok, gen := entry.state()
	resp := BoardSync{Valid: ok, Cost: cost, Gen: gen, Cfg: cfg}
	if msg.Gen != 0 && msg.Gen == gen {
		// The requester already holds this generation: answer without
		// re-sending the configuration. Valid false + matching Gen is
		// the "unchanged" shape; the worker keeps its cache as is.
		resp = BoardSync{Gen: gen}
	}
	payload, merr := json.Marshal(resp)
	if merr != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": merr.Error()})
		return
	}
	h.mTxBytes.Add(int64(len(payload)))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// traffic reports cumulative board sync body bytes each way.
func (h *boardHub) traffic() (rx, tx int64) {
	return h.mRxBytes.Load(), h.mTxBytes.Load()
}

// close shuts the board server down; in-flight syncs are severed (the
// scheme is best-effort, and the owning coordinator is going away).
func (h *boardHub) close() {
	h.mu.Lock()
	srv := h.srv
	h.srv, h.ln = nil, nil
	h.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// boardRefreshTicks bounds staleness under the dirty-flag sync: a
// clean cache still reconciles every boardRefreshTicks ticks (with a
// cheap gen-only request), so a laggard whose own publishes never
// improve the board keeps learning about the leaders' elites. 1 tick
// dirty-or-due latency for improvements, <= 4 ticks for adoptions.
const boardRefreshTicks = 4

// remoteBoard is the worker side of the cross-worker exchange scheme:
// a multiwalk.Board whose Publish/Snapshot operate purely on a local
// in-memory cache — the hot loop never blocks on the network — while a
// background syncer reconciles the cache with the coordinator-hosted
// global board. Cooperation latency is therefore bounded by the sync
// period plus one round trip, and a partitioned worker degrades to an
// independent walk instead of stalling.
//
// Sync is change-driven, not unconditional: Publish marks the cache
// dirty only when it actually improves the local best, a dirty tick
// does the full publish-and-fetch, and a clean tick is skipped
// entirely until the boardRefreshTicks staleness bound forces a
// gen-only refresh probe.
type remoteBoard struct {
	cache  multiwalk.Board
	url    string
	client *http.Client
	period time.Duration

	mu        sync.Mutex
	dirty     bool
	lastGen   uint64
	idleTicks int

	stopSync context.CancelFunc
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newRemoteBoard(url string, client *http.Client, period time.Duration) *remoteBoard {
	if period <= 0 {
		period = defaultBoardSync
	}
	return &remoteBoard{
		cache:  multiwalk.NewLocalBoard(),
		url:    url,
		client: client,
		period: period,
	}
}

// boardBest is the cheap best-cost read localBoard provides; the
// interface assertion keeps the multiwalk.Board contract minimal.
type boardBest interface {
	Best() (int, bool)
}

// Publish implements multiwalk.Board against the local cache, marking
// the cache dirty when the publish improves the local best — the
// signal the syncer keys off instead of re-sending unconditionally.
func (b *remoteBoard) Publish(cost int, cfg []int) {
	improved := true
	if lb, ok := b.cache.(boardBest); ok {
		cur, valid := lb.Best()
		improved = !valid || cost < cur
	}
	b.cache.Publish(cost, cfg)
	if improved {
		b.markDirty()
	}
}

// Snapshot implements multiwalk.Board against the local cache.
func (b *remoteBoard) Snapshot() (int, []int, bool) { return b.cache.Snapshot() }

// applyGlobal merges the hub's answer to a sync into the cache.
// Hub-originated publishes keep the dirty flag untouched: only local
// improvements need pushing.
func (b *remoteBoard) applyGlobal(valid bool, cost int, cfg []int, gen uint64) {
	if valid && len(cfg) > 0 {
		b.cache.Publish(cost, cfg)
	}
	b.mu.Lock()
	if gen > b.lastGen {
		b.lastGen = gen
	}
	b.mu.Unlock()
}

// markDirty flags the cache for the next sync.
func (b *remoteBoard) markDirty() {
	b.mu.Lock()
	b.dirty = true
	b.idleTicks = 0
	b.mu.Unlock()
}

// takeDirty consumes the dirty flag, reporting whether a sync is due:
// always when dirty, every boardRefreshTicks ticks otherwise (the
// bounded-staleness refresh). The second return is the gen to stamp
// the request with.
func (b *remoteBoard) takeDirty() (due, dirty bool, gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dirty {
		b.dirty = false
		b.idleTicks = 0
		return true, true, b.lastGen
	}
	b.idleTicks++
	if b.idleTicks >= boardRefreshTicks {
		b.idleTicks = 0
		return true, false, b.lastGen
	}
	return false, false, b.lastGen
}

// start launches the background syncer. It runs until stop is called
// or ctx is cancelled, whichever comes first.
func (b *remoteBoard) start(ctx context.Context) {
	syncCtx, cancel := context.WithCancel(ctx)
	b.stopSync = cancel
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		tick := time.NewTicker(b.period)
		defer tick.Stop()
		for {
			select {
			case <-syncCtx.Done():
				return
			case <-tick.C:
				b.sync(syncCtx)
			}
		}
	}()
}

// stop halts the syncer and performs one final flush, so a win
// published after the last tick (or after the run context was
// cancelled) still reaches the global board before the shard answers
// the coordinator — only when there is something unsynced to push.
// Idempotent: later calls are no-ops.
func (b *remoteBoard) stop() {
	if b.stopSync == nil {
		return
	}
	b.stopOnce.Do(func() {
		b.stopSync()
		b.wg.Wait()
		b.mu.Lock()
		dirty := b.dirty
		b.mu.Unlock()
		if !dirty {
			return
		}
		flushCtx, cancel := context.WithTimeout(context.Background(), boardSyncTimeout)
		defer cancel()
		b.sync(flushCtx)
	})
}

// sync performs one publish-and-fetch round trip when one is due —
// immediately for a dirty cache, every boardRefreshTicks ticks (as a
// compact gen-only probe) otherwise. Failures restore the dirty flag
// so the improvement is retried at the next tick; a missed sync only
// delays cooperation.
func (b *remoteBoard) sync(ctx context.Context) {
	due, dirty, gen := b.takeDirty()
	if !due {
		return
	}
	msg := BoardSync{Gen: gen}
	if dirty {
		cost, cfg, ok := b.cache.Snapshot()
		msg = BoardSync{Valid: ok, Cost: cost, Gen: gen, Cfg: cfg}
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	reqCtx, cancel := context.WithTimeout(ctx, boardSyncTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, b.url, bytes.NewReader(payload))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		if dirty {
			b.markDirty()
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if dirty && resp.StatusCode >= http.StatusInternalServerError {
			// Transient server failure: keep the improvement pending.
			// 4xx rejections are final — retrying an invalid claim
			// every tick would re-create the churn this flag removes.
			b.markDirty()
		}
		return
	}
	var global BoardSync
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBoardSyncLen)).Decode(&global); err != nil {
		return
	}
	b.applyGlobal(global.Valid, global.Cost, global.Cfg, global.Gen)
}

// errExchangeVirtual rejects dependent virtual runs at the coordinator
// before any slot is reserved; the protocol validator enforces the
// same rule worker-side.
var errExchangeVirtual = errors.New("dist: the exchange scheme requires wall-clock Run mode; virtual sweeps have no concurrent peers to cooperate with")
