package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/httpjson"
)

// The dependent scheme across processes (DESIGN §10). The walkers of an
// exchange shard share a board of their run's own on their worker
// (workerRun.board), and the job's loop relays between those boards:
// every boardSync it posts one BoardSync to each live copy of the
// round, carrying the job's best, and merges what the copies answer
// into it. The coordinator calls and the worker answers, as for a run,
// a cancel or a progress read, so the relay reaches every worker a run
// call reaches and opens no listener of its own.

// defaultBoardSync is the relay period when CoordinatorConfig.BoardSync
// is 0. 50ms keeps cooperation latency well under a typical exchange
// period's wall-clock while staying negligible against the protocol's
// other traffic.
const defaultBoardSync = 50 * time.Millisecond

// boardSyncTimeout bounds one relay call. A call that misses it only
// delays the next tick: the scheme is best-effort by design, so a
// frozen worker holds the relay up by at most this long.
const boardSyncTimeout = 5 * time.Second

// jobBoard is an exchange job's best configuration and the probe that
// verifies every claim on it. The job's loop owns it, so nothing locks
// it.
type jobBoard struct {
	probe core.Problem
	cost  int
	cfg   []int
	gen   uint64 // how many claims were merged; 0 while the board is empty
}

// merge keeps a copy's claim when it improves on the job's best, and
// reports whether it did.
//
// The board crosses trust boundaries between processes, and its
// contents steer every walker of the job, so the claim is verified
// rather than trusted: the configuration must be well-formed for the
// job's instance (core.ValidateConfig), and the cost must be the
// probe-recomputed cost of that configuration. Without the
// recomputation one corrupt worker could claim a fake cost 0 and stand
// the whole fleet down, or a fake low cost that monotonically blocks
// every real elite. Honest claims always match: the engine's
// incrementally maintained cost equals the recomputed one (pinned by
// the core equivalence suites). Only an improving claim is verified:
// the board keeps strict improvements only.
func (b *jobBoard) merge(cost int, cfg []int) bool {
	if b.gen > 0 && cost >= b.cost {
		return false
	}
	if core.ValidateConfig(b.probe, cfg) != nil || b.probe.Cost(cfg) != cost {
		return false
	}
	b.cost, b.cfg = cost, cfg
	b.gen++
	return true
}

// relay is one relay tick: a call to every copy of every unresolved
// slot still running, carrying the job's best cost, and its
// configuration to a copy that does not hold it yet. A job that has
// won or been cancelled, or whose board holds a solution, relays
// nothing more: the first-solution cancel stops its shards. The next
// tick is armed when this tick's last reply is in.
func (j *fleetJob) relay() {
	c, b, ctx, in := j.c, j.board, j.reqCtx, j.in
	if j.won || j.cancelled || (b.gen > 0 && b.cost == 0) {
		return
	}
	// Marshalled once a tick each; every call only reads its body.
	var bare, full []byte
	for i := range j.slots {
		s := &j.slots[i]
		if s.resolved {
			continue
		}
		for _, a := range [2]*assignment{s.primary, s.backup} {
			if a == nil || a.released {
				continue
			}
			gen, enc, msg := b.gen, &bare, BoardSync{Valid: b.gen > 0, Cost: b.cost}
			if a.held < b.gen {
				enc, msg.Cfg = &full, b.cfg
			}
			if *enc == nil {
				*enc, _ = json.Marshal(msg) // a bool and integers always encode
			}
			j.relays++
			go func(body []byte) {
				reply, err := c.boardCall(ctx, a, body)
				if err != nil {
					gen = 0
				}
				in.post(event{kind: evRelay, from: a, gen: gen, reply: reply})
			}(*enc)
		}
	}
	if j.relays == 0 {
		j.relayTick = c.after(c.boardSync)
	}
}

// relayed applies one relay reply. A copy that answered holds the best
// its call carried; a claim that beats the job's best and survives the
// probe becomes it, and its copy holds that instead.
func (j *fleetJob) relayed(ev event) {
	b, a := j.board, ev.from
	a.held = max(a.held, ev.gen)
	if r := ev.reply; r.Valid && b.merge(r.Cost, r.Cfg) {
		a.held = b.gen
	}
	if j.relays--; j.relays == 0 {
		j.relayTick = j.c.after(j.c.boardSync)
	}
}

// boardCall makes one relay call to copy a, bounded by
// boardSyncTimeout, and returns the worker's answer. It fails when the
// worker does not hold the copy's run (not registered yet, or already
// answered) or does not answer in time.
func (c *Coordinator) boardCall(ctx context.Context, a *assignment, body []byte) (BoardSync, error) {
	ctx, cancel := context.WithTimeout(ctx, boardSyncTimeout)
	defer cancel()
	c.mBoardSyncs.Add(1)
	c.mBoardTx.Add(int64(len(body)))
	var raw json.RawMessage
	if err := httpjson.Call(ctx, c.client, http.MethodPost, a.worker.base+"/v1/runs/"+a.runID+"/board", body, &raw, maxBoardSyncLen); err != nil {
		return BoardSync{}, err
	}
	c.mBoardRx.Add(int64(len(raw)))
	var reply BoardSync
	err := json.Unmarshal(raw, &reply)
	return reply, err
}

// handleBoard answers one relay call of an exchange run: it publishes
// the job's best into the run's board when the call carries its
// configuration, and answers with the run's best when that beats the
// cost it was sent, with Valid false otherwise. A run this worker does
// not hold — not registered yet, already answered, or not an exchange
// run — is a 404.
func (wk *Worker) handleBoard(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk.mu.Lock()
	run, ok := wk.runs[id]
	wk.mu.Unlock()
	if !ok || run.board == nil {
		httpjson.Write(w, http.StatusNotFound, map[string]string{"error": "unknown exchange run " + id})
		return
	}
	var msg BoardSync
	if err := httpjson.Decode(r.Body, maxBoardSyncLen, &msg); err != nil {
		httpjson.Write(w, http.StatusBadRequest, map[string]string{"error": "invalid board sync: " + err.Error()})
		return
	}
	if msg.Valid && len(msg.Cfg) > 0 {
		run.board.Publish(msg.Cost, msg.Cfg)
	}
	cost, cfg, ok := run.board.Snapshot()
	if !ok || (msg.Valid && cost >= msg.Cost) {
		httpjson.Write(w, http.StatusOK, BoardSync{})
		return
	}
	httpjson.Write(w, http.StatusOK, BoardSync{Valid: true, Cost: cost, Cfg: cfg})
}

// errExchangeVirtual rejects dependent virtual runs at the coordinator
// before any slot is reserved; the protocol validator enforces the
// same rule worker-side.
var errExchangeVirtual = errors.New("dist: the exchange scheme requires wall-clock Run mode; virtual sweeps have no concurrent peers to cooperate with")
