package service

import (
	"strconv"

	"repro/internal/httpjson"
	"repro/internal/multiwalk"
)

// The front door's two hot messages — the solve request in, the job
// record out — are read and written here without reflection. Both are
// pinned to encoding/json: FuzzDecodeRequest and FuzzJobJSON compare
// them with it on arbitrary input, and testdata/solve_reply_wire.json
// pins the replies byte for byte.

// AppendJSON appends j as json.Marshal writes it (httpjson.Write sends
// a Job through it). A Job json.Marshal refuses — a non-finite float in
// Exchange or AutoSize, a time outside the years 0–9999 — comes from
// neither a decoded request nor the scheduler's clock; AppendJSON
// writes no valid JSON for one.
func (j Job) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = httpjson.AppendString(dst, j.ID)
	dst = append(dst, `,"state":`...)
	dst = httpjson.AppendString(dst, string(j.State))
	dst = append(dst, `,"request":`...)
	dst = j.Request.appendJSON(dst)
	if j.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = httpjson.AppendString(dst, j.Error)
	}
	dst = append(dst, `,"submitted_at":`...)
	dst = httpjson.AppendTime(dst, j.SubmittedAt)
	if !j.StartedAt.IsZero() {
		dst = append(dst, `,"started_at":`...)
		dst = httpjson.AppendTime(dst, j.StartedAt)
	}
	if !j.FinishedAt.IsZero() {
		dst = append(dst, `,"finished_at":`...)
		dst = httpjson.AppendTime(dst, j.FinishedAt)
	}
	if j.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = j.Result.appendJSON(dst)
	}
	return append(dst, '}')
}

func (r *Request) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"problem":`...)
	dst = httpjson.AppendString(dst, r.Problem)
	dst = httpjson.AppendNonZero(dst, `,"size":`, int64(r.Size))
	if len(r.Params) > 0 {
		dst = append(dst, `,"params":`...)
		dst = httpjson.AppendIntMap(dst, r.Params)
	}
	dst = httpjson.AppendNonZero(dst, `,"walkers":`, int64(r.Walkers))
	if a := r.AutoSize; a != nil {
		dst = append(dst, `,"autosize":{`...)
		sep := len(dst)
		if a.TargetP95 != "" {
			dst = append(dst, `,"target_p95":`...)
			dst = httpjson.AppendString(dst, a.TargetP95)
		}
		dst = httpjson.AppendNonZero(dst, `,"max_walkers":`, int64(a.MaxWalkers))
		dst = httpjson.AppendNonZeroFloat(dst, `,"min_gain":`, a.MinGain)
		dst = httpjson.CloseObject(dst, sep)
	}
	if r.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendUint(dst, r.Seed, 10)
	}
	if r.Exchange != nil {
		dst = appendExchange(dst, r.Exchange)
	}
	dst = httpjson.AppendNonZero(dst, `,"max_iterations":`, r.MaxIterations)
	dst = httpjson.AppendNonZero(dst, `,"max_runs":`, int64(r.MaxRuns))
	dst = httpjson.AppendNonZero(dst, `,"timeout_ms":`, r.TimeoutMS)
	if r.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = httpjson.AppendString(dst, r.Tenant)
	}
	if r.Priority != "" {
		dst = append(dst, `,"priority":`...)
		dst = httpjson.AppendString(dst, r.Priority)
	}
	return append(dst, '}')
}

func appendExchange(dst []byte, x *multiwalk.ExchangeOptions) []byte {
	dst = append(dst, `,"exchange":{"enabled":`...)
	dst = strconv.AppendBool(dst, x.Enabled)
	dst = httpjson.AppendNonZero(dst, `,"period_iters":`, x.Period)
	dst = httpjson.AppendNonZeroFloat(dst, `,"adopt_factor":`, x.AdoptFactor)
	dst = httpjson.AppendNonZero(dst, `,"perturb_swaps":`, int64(x.PerturbSwaps))
	return append(dst, '}')
}

func (r *JobResult) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"solved":`...)
	dst = strconv.AppendBool(dst, r.Solved)
	if len(r.Solution) > 0 {
		dst = append(dst, `,"solution":`...)
		dst = httpjson.AppendInts(dst, r.Solution)
	}
	dst = append(dst, `,"winner":`...)
	dst = strconv.AppendInt(dst, int64(r.Winner), 10)
	dst = append(dst, `,"winner_iterations":`...)
	dst = strconv.AppendInt(dst, r.WinnerIterations, 10)
	dst = append(dst, `,"total_iterations":`...)
	dst = strconv.AppendInt(dst, r.TotalIterations, 10)
	dst = append(dst, `,"completed_walkers":`...)
	dst = strconv.AppendInt(dst, int64(r.CompletedWalkers), 10)
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, r.Truncated)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = strconv.AppendInt(dst, r.ElapsedMS, 10)
	dst = httpjson.AppendNonZero(dst, `,"adoptions":`, r.Adoptions)
	dst = httpjson.AppendNonZero(dst, `,"yielded_walkers":`, int64(r.YieldedWalkers))
	dst = append(dst, `,"best_cost":`...)
	dst = strconv.AppendInt(dst, int64(r.BestCost), 10)
	return append(dst, '}')
}

// ReadJSON reads the body a client writes (httpjson.Decode offers it
// first): one object of the fields below spelt exactly, each at most
// once, with plain ASCII strings, in-range integer literals, true or
// false, and params as a flat object of integers. It refuses anything
// else, leaving b as it was — an escape, a case-folded or unknown key,
// null, a number with a fraction, autosize or exchange, data after the
// object — and the strict decoder reads that body, so every rejection
// and error text stays encoding/json's.
func (b *solveBody) ReadJSON(data []byte) bool {
	lx := httpjson.NewLexer(data)
	var body solveBody
	ok := lx.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "problem":
			body.Problem, ok = lx.Text()
		case "size":
			body.Size, ok = lx.Int()
		case "params":
			body.Params, ok = lx.IntMap()
		case "walkers":
			body.Walkers, ok = lx.Int()
		case "seed":
			body.Seed, ok = lx.Uint64()
		case "max_iterations":
			body.MaxIterations, ok = lx.Int64()
		case "max_runs":
			body.MaxRuns, ok = lx.Int()
		case "timeout_ms":
			body.TimeoutMS, ok = lx.Int64()
		case "tenant":
			body.Tenant, ok = lx.Text()
		case "priority":
			body.Priority, ok = lx.Text()
		case "wait":
			body.Wait, ok = lx.Bool()
		}
		return ok
	})
	if !ok || !lx.End() {
		return false
	}
	*b = body
	return true
}
