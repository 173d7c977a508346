package dist

import (
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/multiwalk"
)

// The fleet's three hot messages — the run request out, the run reply
// and the cancel ack back — are written and read here without
// reflection (the cancel ack is written by encoding/json). All are pinned to encoding/json: FuzzRunRequestJSON and
// FuzzRunResponseJSON compare them with it on arbitrary input, and the
// wire files under testdata pin the bodies.

// AppendJSON appends req as json.Marshal writes it (httpjson.Call sends
// a RunRequest through it). It declines, appending nothing, an exchange
// job's request, which ReadJSON leaves to encoding/json as well, and
// one json.Marshal refuses, with a NaN or infinite engine float: Call
// then encodes either with encoding/json, which says why it cannot.
func (req RunRequest) AppendJSON(dst []byte) []byte {
	e := &req.Engine
	if req.Exchange != (multiwalk.ExchangeOptions{}) || !finite(e.ResetFraction) || !finite(e.ProbSelectLocMin) {
		return dst
	}
	dst = append(dst, `{"id":`...)
	dst = httpjson.AppendString(dst, req.ID)
	dst = append(dst, `,"mode":`...)
	dst = httpjson.AppendString(dst, req.Mode)
	dst = append(dst, `,"problem":`...)
	dst = httpjson.AppendString(dst, req.Problem)
	dst = httpjson.AppendNonZero(dst, `,"size":`, int64(req.Size))
	if len(req.Params) > 0 {
		dst = append(dst, `,"params":`...)
		dst = httpjson.AppendIntMap(dst, req.Params)
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, req.Seed, 10)
	dst = append(dst, `,"total_walkers":`...)
	dst = strconv.AppendInt(dst, int64(req.TotalWalkers), 10)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, int64(req.Start), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(req.Count), 10)
	dst = append(dst, `,"engine":{`...)
	dst = appendOptions(dst, e)
	dst = httpjson.AppendNonZero(dst, `,"deadline_ms":`, req.DeadlineMS)
	if req.Board != "" {
		dst = append(dst, `,"board":`...)
		dst = httpjson.AppendString(dst, req.Board)
	}
	dst = httpjson.AppendNonZero(dst, `,"board_sync_ms":`, req.BoardSyncMS)
	if req.Progress {
		dst = append(dst, `,"progress":true`...)
	}
	return append(dst, '}')
}

// appendOptions appends the members of an engine object whose opening
// brace dst ends with, and its closing brace.
func appendOptions(dst []byte, o *core.Options) []byte {
	sep := len(dst)
	dst = httpjson.AppendNonZero(dst, `,"max_iterations":`, o.MaxIterations)
	dst = httpjson.AppendNonZero(dst, `,"max_runs":`, int64(o.MaxRuns))
	dst = httpjson.AppendNonZero(dst, `,"freeze_loc_min":`, int64(o.FreezeLocMin))
	dst = httpjson.AppendNonZero(dst, `,"freeze_swap":`, int64(o.FreezeSwap))
	dst = httpjson.AppendNonZero(dst, `,"reset_limit":`, int64(o.ResetLimit))
	dst = httpjson.AppendNonZeroFloat(dst, `,"reset_fraction":`, o.ResetFraction)
	dst = httpjson.AppendNonZeroFloat(dst, `,"prob_select_loc_min":`, o.ProbSelectLocMin)
	if o.Strategy != "" {
		dst = append(dst, `,"strategy":`...)
		dst = httpjson.AppendString(dst, o.Strategy)
	}
	if o.FirstBest {
		dst = append(dst, `,"first_best":true`...)
	}
	if o.Exhaustive {
		dst = append(dst, `,"exhaustive":true`...)
	}
	if len(o.InitialConfig) > 0 {
		dst = append(dst, `,"initial_config":`...)
		dst = httpjson.AppendInts(dst, o.InitialConfig)
	}
	dst = httpjson.AppendNonZero(dst, `,"check_every":`, int64(o.CheckEvery))
	return httpjson.CloseObject(dst, sep)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ReadJSON reads the run request a coordinator sends (httpjson.Decode
// offers it first): one object of the members below spelt exactly,
// each at most once, with plain ASCII strings, in-range numbers, true
// or false, params as a flat object of integers and the engine's
// options as one object of its own. It refuses anything else, leaving
// req as it was — an escape, a case-folded or unknown key, null, a
// fraction where an integer goes, exchange, data after the object — and
// the strict decoder reads that body, so every rejection and error text
// stays encoding/json's.
func (req *RunRequest) ReadJSON(data []byte) bool {
	lx := httpjson.NewLexer(data)
	var r RunRequest
	ok := lx.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			r.ID, ok = lx.Text()
		case "mode":
			r.Mode, ok = lx.Text()
		case "problem":
			r.Problem, ok = lx.Text()
		case "size":
			r.Size, ok = lx.Int()
		case "params":
			r.Params, ok = lx.IntMap()
		case "seed":
			r.Seed, ok = lx.Uint64()
		case "total_walkers":
			r.TotalWalkers, ok = lx.Int()
		case "start":
			r.Start, ok = lx.Int()
		case "count":
			r.Count, ok = lx.Int()
		case "engine":
			ok = readOptions(&lx, &r.Engine)
		case "deadline_ms":
			r.DeadlineMS, ok = lx.Int64()
		case "board":
			r.Board, ok = lx.Text()
		case "board_sync_ms":
			r.BoardSyncMS, ok = lx.Int64()
		case "progress":
			r.Progress, ok = lx.Bool()
		}
		return ok
	})
	if !ok || !lx.End() {
		return false
	}
	*req = r
	return true
}

// readOptions reads an engine object into o.
func readOptions(lx *httpjson.Lexer, o *core.Options) bool {
	return lx.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "max_iterations":
			o.MaxIterations, ok = lx.Int64()
		case "max_runs":
			o.MaxRuns, ok = lx.Int()
		case "freeze_loc_min":
			o.FreezeLocMin, ok = lx.Int()
		case "freeze_swap":
			o.FreezeSwap, ok = lx.Int()
		case "reset_limit":
			o.ResetLimit, ok = lx.Int()
		case "reset_fraction":
			o.ResetFraction, ok = lx.Float64()
		case "prob_select_loc_min":
			o.ProbSelectLocMin, ok = lx.Float64()
		case "strategy":
			o.Strategy, ok = lx.Text()
		case "first_best":
			o.FirstBest, ok = lx.Bool()
		case "exhaustive":
			o.Exhaustive, ok = lx.Bool()
		case "initial_config":
			o.InitialConfig, ok = lx.Ints()
		case "check_every":
			o.CheckEvery, ok = lx.Int()
		}
		return ok
	})
}

// runReply is a shard's result as the worker answers it: AppendJSON
// writes the RunResponse json.Marshal writes for wireResult(res)
// straight from the multiwalk.Result, with no wire copy made.
type runReply multiwalk.Result

// AppendJSON appends the reply. It never declines one: a reply holds
// integers and booleans only.
func (r *runReply) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"stats":[`...)
	for i := range r.Walkers {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStat(dst, &r.Walkers[i])
	}
	dst = append(dst, ']')
	dst = appendInt(dst, `,"completed":`, int64(r.Completed))
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, r.Truncated)
	dst = appendInt(dst, `,"elapsed_ns":`, int64(r.Elapsed))
	return append(dst, '}')
}

// appendStat appends one walker's stat as its WalkerStatWire.
func appendStat(dst []byte, ws *multiwalk.WalkerStat) []byte {
	r := &ws.Result
	dst = appendInt(dst, `{"walker":`, int64(ws.Walker))
	dst = append(dst, `,"solved":`...)
	dst = strconv.AppendBool(dst, r.Solved)
	if len(r.Solution) > 0 {
		dst = append(dst, `,"solution":`...)
		dst = httpjson.AppendInts(dst, r.Solution)
	}
	dst = appendInt(dst, `,"cost":`, int64(r.Cost))
	dst = appendInt(dst, `,"iterations":`, r.Iterations)
	dst = appendInt(dst, `,"swaps":`, r.Swaps)
	dst = httpjson.AppendNonZero(dst, `,"assigns":`, r.Assigns)
	dst = httpjson.AppendNonZero(dst, `,"flips":`, r.Flips)
	dst = appendInt(dst, `,"local_minima":`, r.LocalMinima)
	dst = appendInt(dst, `,"plateau_escapes":`, r.PlateauEscapes)
	dst = appendInt(dst, `,"resets":`, r.Resets)
	dst = appendInt(dst, `,"restarts":`, int64(r.Restarts))
	dst = append(dst, `,"interrupted":`...)
	dst = strconv.AppendBool(dst, r.Interrupted)
	dst = appendInt(dst, `,"elapsed_ns":`, int64(r.Elapsed))
	dst = httpjson.AppendNonZero(dst, `,"adoptions":`, ws.Adoptions)
	if ws.Yielded {
		dst = append(dst, `,"yielded":true`...)
	}
	return append(dst, '}')
}

// appendInt appends an integer member, its key given with the comma or
// brace before it.
func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// ReadJSON reads a worker's run reply (httpjson.Call offers it first):
// the members below spelt exactly, each at most once, in an object and
// in each walker's stat. It refuses anything else, leaving resp as it
// was, and json.Unmarshal reads that reply. Unmarshal would skip an
// unknown key and match one case-folded; the reader refuses both, so
// it never reads a reply differently.
func (resp *RunResponse) ReadJSON(data []byte) bool {
	lx := httpjson.NewLexer(data)
	var r RunResponse
	ok := lx.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "stats":
			r.Stats = []WalkerStatWire{}
			ok = lx.Array(func() bool {
				r.Stats = append(r.Stats, WalkerStatWire{})
				return readStat(&lx, &r.Stats[len(r.Stats)-1])
			})
		case "completed":
			r.Completed, ok = lx.Int()
		case "truncated":
			r.Truncated, ok = lx.Bool()
		case "elapsed_ns":
			r.ElapsedNS, ok = lx.Int64()
		}
		return ok
	})
	if !ok || !lx.End() {
		return false
	}
	*resp = r
	return true
}

// readStat reads one walker's stat into w.
func readStat(lx *httpjson.Lexer, w *WalkerStatWire) bool {
	return lx.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "walker":
			w.Walker, ok = lx.Int()
		case "solved":
			w.Solved, ok = lx.Bool()
		case "solution":
			w.Solution, ok = lx.Ints()
		case "cost":
			w.Cost, ok = lx.Int()
		case "iterations":
			w.Iterations, ok = lx.Int64()
		case "swaps":
			w.Swaps, ok = lx.Int64()
		case "assigns":
			w.Assigns, ok = lx.Int64()
		case "flips":
			w.Flips, ok = lx.Int64()
		case "local_minima":
			w.LocalMinima, ok = lx.Int64()
		case "plateau_escapes":
			w.PlateauEscapes, ok = lx.Int64()
		case "resets":
			w.Resets, ok = lx.Int64()
		case "restarts":
			w.Restarts, ok = lx.Int()
		case "interrupted":
			w.Interrupted, ok = lx.Bool()
		case "elapsed_ns":
			w.ElapsedNS, ok = lx.Int64()
		case "adoptions":
			w.Adoptions, ok = lx.Int64()
		case "yielded":
			w.Yielded, ok = lx.Bool()
		}
		return ok
	})
}

// ReadJSON reads a cancel ack, {"cancelled":true} or false, as
// RunResponse.ReadJSON reads a run reply.
func (a *cancelAck) ReadJSON(data []byte) bool {
	lx := httpjson.NewLexer(data)
	var ack cancelAck
	ok := lx.Object(func(key []byte) (ok bool) {
		if string(key) == "cancelled" {
			ack.Cancelled, ok = lx.Bool()
		}
		return ok
	})
	if !ok || !lx.End() {
		return false
	}
	*a = ack
	return true
}
