package service

import (
	"slices"
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
	dst = appendNonZero(dst, `,"size":`, int64(r.Size))
	if len(r.Params) > 0 {
		// Sorted as encoding/json sorts a map's keys; a request's few
		// parameters fit the array, which stays on the stack.
		var arr [8]string
		keys := arr[:0]
		for k := range r.Params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"params":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = httpjson.AppendString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(r.Params[k]), 10)
		}
		dst = append(dst, '}')
	}
	dst = appendNonZero(dst, `,"walkers":`, int64(r.Walkers))
	if a := r.AutoSize; a != nil {
		dst = append(dst, `,"autosize":{`...)
		sep := len(dst)
		if a.TargetP95 != "" {
			dst = append(dst, `,"target_p95":`...)
			dst = httpjson.AppendString(dst, a.TargetP95)
		}
		dst = appendNonZero(dst, `,"max_walkers":`, int64(a.MaxWalkers))
		if a.MinGain != 0 {
			dst = append(dst, `,"min_gain":`...)
			dst = httpjson.AppendFloat(dst, a.MinGain)
		}
		dst = closeObject(dst, sep)
	}
	if r.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendUint(dst, r.Seed, 10)
	}
	if r.Exchange != nil {
		dst = appendExchange(dst, r.Exchange)
	}
	dst = appendNonZero(dst, `,"max_iterations":`, r.MaxIterations)
	dst = appendNonZero(dst, `,"max_runs":`, int64(r.MaxRuns))
	dst = appendNonZero(dst, `,"timeout_ms":`, r.TimeoutMS)
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
	dst = appendNonZero(dst, `,"period_iters":`, x.Period)
	if x.AdoptFactor != 0 {
		dst = append(dst, `,"adopt_factor":`...)
		dst = httpjson.AppendFloat(dst, x.AdoptFactor)
	}
	dst = appendNonZero(dst, `,"perturb_swaps":`, int64(x.PerturbSwaps))
	return append(dst, '}')
}

func (r *JobResult) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"solved":`...)
	dst = strconv.AppendBool(dst, r.Solved)
	if len(r.Solution) > 0 {
		dst = append(dst, `,"solution":[`...)
		for i, v := range r.Solution {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
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
	dst = appendNonZero(dst, `,"adoptions":`, r.Adoptions)
	dst = appendNonZero(dst, `,"yielded_walkers":`, int64(r.YieldedWalkers))
	dst = append(dst, `,"best_cost":`...)
	dst = strconv.AppendInt(dst, int64(r.BestCost), 10)
	return append(dst, '}')
}

// appendNonZero appends an omitempty integer field, key included:
// nothing when v is 0.
func appendNonZero(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// closeObject ends an object whose members were each appended with a
// leading comma from sep on: the first comma goes.
func closeObject(dst []byte, sep int) []byte {
	if len(dst) > sep {
		dst = append(dst[:sep], dst[sep+1:]...)
	}
	return append(dst, '}')
}

// Bits of solveBody.ReadJSON's seen set, one a field.
const (
	seenProblem = 1 << iota
	seenSize
	seenParams
	seenWalkers
	seenSeed
	seenMaxIterations
	seenMaxRuns
	seenTimeoutMS
	seenTenant
	seenPriority
	seenWait
)

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
	if !lx.Delim('{') {
		return false
	}
	var body solveBody
	if !lx.Delim('}') {
		var seen int
		for {
			key, ok := lx.Key()
			if !ok {
				return false
			}
			var bit int
			switch string(key) {
			case "problem":
				bit = seenProblem
				body.Problem, ok = lx.Text()
			case "size":
				bit = seenSize
				body.Size, ok = lx.Int()
			case "params":
				bit = seenParams
				body.Params, ok = readParams(&lx)
			case "walkers":
				bit = seenWalkers
				body.Walkers, ok = lx.Int()
			case "seed":
				bit = seenSeed
				body.Seed, ok = lx.Uint64()
			case "max_iterations":
				bit = seenMaxIterations
				body.MaxIterations, ok = lx.Int64()
			case "max_runs":
				bit = seenMaxRuns
				body.MaxRuns, ok = lx.Int()
			case "timeout_ms":
				bit = seenTimeoutMS
				body.TimeoutMS, ok = lx.Int64()
			case "tenant":
				bit = seenTenant
				body.Tenant, ok = lx.Text()
			case "priority":
				bit = seenPriority
				body.Priority, ok = lx.Text()
			case "wait":
				bit = seenWait
				body.Wait, ok = lx.Bool()
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if lx.Delim('}') {
				break
			}
			if !lx.Delim(',') {
				return false
			}
		}
	}
	if !lx.End() {
		return false
	}
	*b = body
	return true
}

// readParams reads a flat object of integers, no key twice. {} is an
// empty map, not nil, as encoding/json makes it.
func readParams(lx *httpjson.Lexer) (map[string]int, bool) {
	if !lx.Delim('{') {
		return nil, false
	}
	params := make(map[string]int)
	if lx.Delim('}') {
		return params, true
	}
	for {
		key, ok := lx.Key()
		if !ok {
			return nil, false
		}
		if _, dup := params[string(key)]; dup {
			return nil, false
		}
		v, ok := lx.Int()
		if !ok {
			return nil, false
		}
		params[string(key)] = v
		if lx.Delim('}') {
			return params, true
		}
		if !lx.Delim(',') {
			return nil, false
		}
	}
}
