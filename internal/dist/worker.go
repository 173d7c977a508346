package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpjson"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/telemetry"
)

// WorkerConfig sizes one worker process.
type WorkerConfig struct {
	// Slots is the walker-slot capacity — how many concurrent engine
	// goroutines this worker accepts across all shard runs (the
	// paper's one-walker-per-core model). 0 selects GOMAXPROCS.
	Slots int
	// Telemetry, when non-nil, receives periodic FTDC-style samples:
	// worker gauges plus per-walker iteration and cost series for
	// every active run. The caller owns the recorder's sink.
	Telemetry *telemetry.Recorder
	// TelemetryInterval is the sampling period. 0 selects 1s.
	TelemetryInterval time.Duration
}

// newBoardClient is the worker's board sync client: board traffic goes
// to a single coordinator host at a steady cadence, so a few kept-alive
// connections replace the per-tick churn of the zero-value client (each
// sync is bounded by its own timeout, so no global one is set).
func newBoardClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// Worker executes shard runs on behalf of a coordinator. Expose it
// over HTTP with Handler (cmd/worker does exactly that):
//
//	POST /v1/run              run a walker shard, respond with its stats
//	GET  /v1/runs/{id}        an in-flight run's progress (RunProgress)
//	POST /v1/runs/{id}/cancel cancel an in-flight shard run
//	GET  /healthz             liveness + slot capacity and usage
//
// A run request blocks until the shard finishes (or is cancelled) and
// answers with the per-walker statistics; cancellation arrives either
// through the cancel endpoint (first-solution termination — the shard
// still reports its partial stats) or by the coordinator dropping the
// connection (orphan protection — the request context aborts the run).
type Worker struct {
	slots       int
	boardClient *http.Client
	telem       *telemetry.Recorder
	telemEvery  time.Duration

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	busy   int
	runs   map[string]workerRun
	closed bool
	wg     sync.WaitGroup
	// early remembers the ids of the last cancels that found no run: the
	// run had finished, or — the case the ring exists for — its cancel
	// overtook it on the way here, and reserve must stop it when it
	// registers. A fixed ring: the oldest entry is overwritten. An id
	// names one run of one coordinator (its epoch leads it), so an entry
	// can only ever stop the run it was sent for.
	early     [earlyCancels]string
	earlyNext int

	mRuns      atomic.Int64
	mCancelled atomic.Int64
}

// earlyCancels is how many unmatched cancels a worker remembers. A
// cancel overtakes its run by the scheduling delay of one goroutine, so
// only the entries of jobs still in flight matter; 256 is far above any
// fleet's concurrent shard count per worker.
const earlyCancels = 256

// workerRun is one registered run: the cancel a cancel RPC calls and,
// when the request asked for progress or telemetry is on, the run's
// counters — an (iterations, cost) atomic pair per walker, written by
// the run's Progress hook and read by GET /v1/runs/{id} and the FTDC
// sampler.
type workerRun struct {
	cancel context.CancelFunc
	start  int
	cells  []atomic.Int64 // 2 per walker: iterations, cost; nil when nobody reads them
}

// NewWorker creates a worker with the given slot capacity.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.TelemetryInterval <= 0 {
		cfg.TelemetryInterval = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	wk := &Worker{
		slots:       cfg.Slots,
		boardClient: newBoardClient(),
		telem:       cfg.Telemetry,
		telemEvery:  cfg.TelemetryInterval,
		ctx:         ctx,
		cancel:      cancel,
		runs:        make(map[string]workerRun),
	}
	if wk.telem != nil {
		go wk.sampleTelemetry()
	}
	return wk
}

// Slots returns the worker's walker-slot capacity.
func (wk *Worker) Slots() int { return wk.slots }

// Busy returns the worker's currently reserved slot count.
func (wk *Worker) Busy() int {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.busy
}

// Close cancels every in-flight run and waits for them to unwind. New
// runs are rejected afterwards, and the board client's keep-alive
// connections are released.
func (wk *Worker) Close() {
	wk.mu.Lock()
	wk.closed = true
	wk.mu.Unlock()
	wk.cancel()
	wk.wg.Wait()
	wk.boardClient.CloseIdleConnections()
}

// sampleTelemetry is the worker's FTDC sampler: one row per interval
// carrying the worker gauges and every active run's per-walker
// iteration and cost series. Metric names are sorted, so the schema
// only changes when the active-run set does — the recorder's
// schema-delta encoding stays cheap between run boundaries.
func (wk *Worker) sampleTelemetry() {
	tick := time.NewTicker(wk.telemEvery)
	defer tick.Stop()
	for {
		select {
		case <-wk.ctx.Done():
			return
		case now := <-tick.C:
			wk.mu.Lock()
			busy := wk.busy
			metrics := make([]telemetry.Metric, 0, 4+8*len(wk.runs))
			for id, run := range wk.runs {
				for i := 0; i < len(run.cells)/2; i++ {
					g := run.start + i
					metrics = append(metrics,
						telemetry.Metric{Name: fmt.Sprintf("%s_w%04d_iter", id, g), Value: run.cells[2*i].Load()},
						telemetry.Metric{Name: fmt.Sprintf("%s_w%04d_cost", id, g), Value: run.cells[2*i+1].Load()},
					)
				}
			}
			wk.mu.Unlock()
			metrics = append(metrics,
				telemetry.Metric{Name: "runs_total", Value: wk.mRuns.Load()},
				telemetry.Metric{Name: "slots_busy", Value: int64(busy)},
			)
			sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
			_ = wk.telem.Record(now, metrics)
		}
	}
}

// Handler returns the worker's HTTP protocol surface.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", wk.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}", wk.handleProgress)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", wk.handleCancel)
	mux.HandleFunc("GET /healthz", wk.handleHealth)
	return mux
}

// reserve admits a shard run: slot accounting plus run registration.
// ModeRun shards occupy one slot per walker (they run concurrently);
// ModeVirtual shards occupy a single slot, because RunVirtual executes
// its walkers sequentially on one core regardless of the shard size.
// The run's counters are built here when someone will read them — the
// request asked for progress, or telemetry is on — and are nil
// otherwise, so the Progress hook costs nothing.
func (wk *Worker) reserve(req *RunRequest, cancel context.CancelFunc) (release func(), cells []atomic.Int64, err error) {
	need := req.Count
	if req.Mode == ModeVirtual {
		need = 1
	}
	if req.Progress || wk.telem != nil {
		cells = make([]atomic.Int64, 2*req.Count)
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.closed {
		return nil, nil, errors.New("dist: worker shutting down")
	}
	if _, dup := wk.runs[req.ID]; dup {
		return nil, nil, fmt.Errorf("%w: duplicate run id %q", ErrBadRequest, req.ID)
	}
	if wk.busy+need > wk.slots {
		return nil, nil, fmt.Errorf("%w: %d slots requested, %d of %d free", ErrBusy, need, wk.slots-wk.busy, wk.slots)
	}
	wk.busy += need
	wk.runs[req.ID] = workerRun{cancel: cancel, start: req.Start, cells: cells}
	wk.wg.Add(1)
	id := req.ID
	for k := range wk.early {
		if wk.early[k] == id {
			// The run's cancel got here first: the run goes through the
			// same path as any other, on a context already cancelled, and
			// answers with every walker Interrupted at zero iterations.
			wk.mCancelled.Add(1)
			cancel()
			wk.early[k] = ""
			break
		}
	}
	return func() {
		wk.mu.Lock()
		wk.busy -= need
		delete(wk.runs, id)
		wk.mu.Unlock()
		wk.wg.Done()
	}, cells, nil
}

// handleRun executes one shard run and answers with its statistics.
func (wk *Worker) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRunRequest(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}

	// The run is bound to (a) the request context, so a vanished
	// coordinator aborts it, (b) the worker lifetime, so Close drains
	// it, and (c) the request's own deadline, so an orphan cannot hold
	// slots forever even while the connection lingers. One context
	// carries all three: the deadline's, when there is one, is also the
	// cancel a cancel RPC calls.
	var runCtx context.Context
	var cancel context.CancelFunc
	if req.DeadlineMS > 0 {
		runCtx, cancel = context.WithTimeout(r.Context(), time.Duration(req.DeadlineMS)*time.Millisecond)
	} else {
		runCtx, cancel = context.WithCancel(r.Context())
	}
	defer cancel()
	stop := context.AfterFunc(wk.ctx, cancel)
	defer stop()

	release, cells, err := wk.reserve(&req, cancel)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()

	factory, err := problems.NewFactoryParams(req.Problem, req.Size, req.Params)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	opts := multiwalk.Options{
		Walkers: req.Count,
		Seed:    req.Seed,
		Engine:  req.Engine,
		Shard:   &multiwalk.Shard{Start: req.Start, Total: req.TotalWalkers},
	}
	// One set of per-walker (iteration, cost) cells feeds both consumers
	// that want live counters: the FTDC sampler and the coordinator's
	// straggler detector, which reads them with GET /v1/runs/{id}.
	if cells != nil {
		start := req.Start
		opts.Progress = func(walker int, iter int64, cost int) {
			i := walker - start
			if i < 0 || 2*i >= len(cells) {
				return
			}
			cells[2*i].Store(iter)
			cells[2*i+1].Store(int64(cost))
		}
	}

	// Dependent runs cooperate through a write-through cache of the
	// coordinator's global board: walkers touch only local memory, the
	// cache syncs in the background, and the final stop() flush pushes
	// a late win to the board before the shard answers — while the
	// coordinator still holds the board open (it waits for every shard
	// response before releasing it).
	var board *remoteBoard
	if req.Exchange.Enabled {
		opts.Exchange = req.Exchange
		board = newRemoteBoard(req.Board, wk.boardClient, time.Duration(req.BoardSyncMS)*time.Millisecond)
		board.start(runCtx)
		defer board.stop() // idempotent backstop for early returns
		opts.Board = board
	}

	var res multiwalk.Result
	if req.Mode == ModeVirtual {
		res, err = multiwalk.RunVirtual(runCtx, multiwalk.Factory(factory), opts)
	} else {
		res, err = multiwalk.Run(runCtx, multiwalk.Factory(factory), opts)
	}
	if board != nil {
		board.stop()
	}
	if err != nil {
		// Deep option validation failed (multiwalk/core reject) — the
		// request was well-formed but unsatisfiable; a client error.
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	wk.mRuns.Add(1)
	httpjson.Write(w, http.StatusOK, (*runReply)(&res))
}

// progressOf folds a run's per-walker cells into its progress reply:
// total iterations, walkers that have iterated at least once, and the
// best (lowest) cost among them, or -1 before any walker reports.
func progressOf(cells []atomic.Int64) RunProgress {
	p := RunProgress{Best: -1}
	for i := 0; i < len(cells)/2; i++ {
		iter := cells[2*i].Load()
		if iter <= 0 {
			continue
		}
		p.Iters += iter
		p.Walkers++
		if cost := cells[2*i+1].Load(); p.Best < 0 || cost < p.Best {
			p.Best = cost
		}
	}
	return p
}

// handleProgress answers an in-flight run's progress from its counters
// (all zero when the run keeps none), and 404 for a run this worker
// does not hold: not yet registered, already answered, or never sent.
func (wk *Worker) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk.mu.Lock()
	run, ok := wk.runs[id]
	wk.mu.Unlock()
	if !ok {
		httpjson.Write(w, http.StatusNotFound, map[string]string{"error": "unknown run " + id})
		return
	}
	httpjson.Write(w, http.StatusOK, progressOf(run.cells))
}

// handleCancel cancels an in-flight run. Cancelling an unknown run is
// reported in the response body and remembered (Worker.early): a run
// already finished never comes back for it, a run not yet registered is
// stopped by reserve. The call is idempotent.
func (wk *Worker) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk.mu.Lock()
	run, ok := wk.runs[id]
	if !ok {
		wk.early[wk.earlyNext] = id
		wk.earlyNext = (wk.earlyNext + 1) % earlyCancels
	}
	wk.mu.Unlock()
	if ok {
		// Counted before it takes effect, so whoever sees the run's
		// interrupted stats also sees the cancel in cancels_total.
		wk.mCancelled.Add(1)
		run.cancel()
	}
	httpjson.Write(w, http.StatusOK, cancelAck{Cancelled: ok})
}

// handleHealth reports liveness and slot headroom; the coordinator
// reads Slots from here when it enrolls the worker.
func (wk *Worker) handleHealth(w http.ResponseWriter, r *http.Request) {
	wk.mu.Lock()
	busy := wk.busy
	active := len(wk.runs)
	closed := wk.closed
	wk.mu.Unlock()
	status, code := "ok", http.StatusOK
	if closed {
		status, code = "shutting down", http.StatusServiceUnavailable
	}
	httpjson.Write(w, code, map[string]any{
		"status":        status,
		"slots":         wk.slots,
		"slots_busy":    busy,
		"active_runs":   active,
		"runs_total":    wk.mRuns.Load(),
		"cancels_total": wk.mCancelled.Load(),
	})
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusRequestTimeout
	default:
		// Shutdown and other availability failures.
		code = http.StatusServiceUnavailable
	}
	httpjson.Write(w, code, map[string]string{"error": err.Error()})
}
