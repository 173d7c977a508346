package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/multiwalk"
)

// FuzzDecodeRequest hammers the worker protocol decoder with arbitrary
// bytes. The contract: no panics, no unbounded allocation (the decoder
// caps body and walker sizes), and every failure wraps the
// typed ErrBadRequest. A successfully decoded request must pass its
// own Validate — decode-then-revalidate is how the worker trusts the
// value for slot arithmetic.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":4,"start":1,"count":2,"engine":{"max_iterations":100}}`))
	// The retired portfolio field: rejected as unknown.
	f.Add([]byte(`{"id":"a","mode":"virtual","problem":"costas","size":9,"seed":7,"total_walkers":8,"count":8,"portfolio":[{"weight":2,"engine":{"strategy":"adaptive"}},{"engine":{"strategy":"metropolis"}}]}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"reset_fraction":1e308}}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":9007199254740993,"count":1}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"costas","total_walkers":2,"count":1,"engine":{"prob_select_loc_min":0.5,"initial_config":[1,0]},"exchange":{"enabled":true,"period_iters":64,"adopt_factor":1.5}}`))
	f.Add([]byte(`{"id":"a","mode":"virtual","problem":"queens","total_walkers":4,"start":4611686018427387904,"count":4611686018427387904}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":1,"count":1,"board_stream":"127.0.0.1:1"}`))
	// Data after the request: rejected.
	f.Add([]byte(`{"id":"a","mode":"run","problem":"costas","size":8,"total_walkers":1,"count":1}{"problem":"queens"}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"costas","size":8,"total_walkers":1,"count":1} trailing garbage`))
	if big, err := json.Marshal(RunRequest{ID: "b", Mode: ModeRun, Problem: "magic-square", TotalWalkers: 1 << 19, Start: 0, Count: 1 << 19}); err == nil {
		f.Add(big)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails its own Validate: %v", err)
		}
		// The invariants the worker's slot accounting relies on.
		if req.Count < 1 || req.Start < 0 || req.Start+req.Count > req.TotalWalkers {
			t.Fatalf("validated request with inconsistent shard: %+v", req)
		}
	})
}

// strictRunRequest is RunRequest without its codec: encoding/json reads
// and writes it by reflection, httpjson.Decode strictly.
type strictRunRequest RunRequest

// FuzzRunRequestJSON: RunRequest.ReadJSON either refuses a body and
// leaves the request as it was, or reads it to what the strict decoder
// makes of it; RunRequest.AppendJSON writes exactly what json.Marshal
// writes, or nothing for an exchange job; and the reader takes those bytes unless they need what it
// leaves to the strict decoder. A request to append is fuzzed as a body
// unmarshalled into it (the seeds include the pinned wire bodies, so
// every field starts populated) with an arbitrary string, invalid UTF-8
// included, put into its free-text fields and its params.
func FuzzRunRequestJSON(f *testing.F) {
	raw, err := os.ReadFile(wireFormatFile)
	if err != nil {
		f.Fatal(err)
	}
	var pinned map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pinned); err != nil {
		f.Fatal(err)
	}
	for _, body := range pinned {
		f.Add([]byte(body), "")
	}
	f.Add([]byte(`{}`), "\u2028\xff<&>\"\\\x01\x7f")
	f.Add([]byte(`{"id":"a","mode":"run","problem":"timetable","size":20,"params":{"slots":6,"rooms":4,"teachers":4},"seed":18446744073709551615,"total_walkers":2,"start":1,"count":1,"engine":{"max_iterations":4000,"max_runs":-1,"freeze_loc_min":1,"freeze_swap":0,"reset_limit":3,"reset_fraction":5e-324,"prob_select_loc_min":-0,"strategy":"adaptive","first_best":true,"exhaustive":false,"initial_config":[],"check_every":64},"deadline_ms":9,"progress":false}`), "")
	f.Add([]byte(` {"id" : "a", "params":{}, "engine":{ "reset_fraction":1E+2, "initial_config":[ 1 , 0 ] } }`+"\n"), "")
	// Shapes left to the strict decoder.
	for _, body := range []string{
		`null`,
		`{"id":null}`,
		`{"ID":"a"}`,
		`{"id":"a","id":"b"}`,
		`{"id":"\u0061"}`,
		`{"id":"ä"}`,
		`{"size":9.0}`,
		`{"seed":-1}`,
		`{"engine":{"reset_fraction":1e400}}`,
		`{"engine":{"reset_fraction":.5}}`,
		`{"engine":{"reset_fraction":0.}}`,
		`{"engine":{"prob_select_loc_min":1e}}`,
		`{"engine":{"check_every":1},"engine":{"max_runs":2}}`,
		`{"engine":{"initial_config":[1,,2]}}`,
		`{"params":{"slots":6,"slots":7}}`,
		`{"exchange":{"enabled":true}}`,
		`{"portfolio":[]}`,
		`{"id":"a"} {}`,
	} {
		f.Add([]byte(body), "")
	}
	f.Fuzz(func(t *testing.T, data []byte, s string) {
		// read reports whether the fast reader took data.
		read := func(data []byte) bool {
			untouched := RunRequest{ID: "untouched", Params: map[string]int{"k": 1}}
			fast := untouched
			if !fast.ReadJSON(data) {
				if !reflect.DeepEqual(fast, untouched) {
					t.Fatalf("%q: refused, but the request became %+v", data, fast)
				}
				return false
			}
			var strict strictRunRequest
			if err := httpjson.Decode(bytes.NewReader(data), maxRequestBodyLen, &strict); err != nil {
				t.Fatalf("fast reader took %q, the strict decoder refuses it: %v", data, err)
			}
			if !reflect.DeepEqual(RunRequest(strict), fast) {
				t.Fatalf("%q: fast reader %+v, strict decoder %+v", data, fast, strict)
			}
			return true
		}
		read(data)

		var req RunRequest
		_ = json.Unmarshal(data, (*strictRunRequest)(&req)) // whatever it fills in is a request
		if s != "" {
			req.ID += s
			req.Problem = s
			req.Engine.Strategy = s
			if req.Params == nil {
				req.Params = make(map[string]int)
			}
			req.Params[s] = len(s)
		}
		want, err := json.Marshal(strictRunRequest(req))
		if err != nil {
			t.Skipf("json.Marshal refuses the request: %v", err)
		}
		exchange := req.Exchange != (multiwalk.ExchangeOptions{})
		if got := req.AppendJSON(nil); exchange && len(got) > 0 {
			t.Fatalf("AppendJSON wrote an exchange request: %s", got)
		} else if !exchange && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON\n%s\njson.Marshal\n%s", got, want)
		}
		// The reader leaves exchange, escapes, non-ASCII bytes and an
		// object of more than httpjson.MaxMembers members to the strict
		// decoder.
		plain := bytes.IndexFunc(want, func(r rune) bool { return r == '\\' || r > 0x7e }) < 0
		if !read(want) && plain && !exchange && len(req.Params) <= httpjson.MaxMembers {
			t.Fatalf("the fast reader refuses what the coordinator sends: %s", want)
		}
	})
}

// TestRunRequestAppendDeclines: a request json.Marshal refuses appends
// nothing, and httpjson.Call reports encoding/json's refusal for it.
func TestRunRequestAppendDeclines(t *testing.T) {
	for _, req := range []RunRequest{
		{Engine: core.Options{ResetFraction: math.NaN()}},
		{Engine: core.Options{ProbSelectLocMin: math.Inf(1)}},
		{Exchange: multiwalk.ExchangeOptions{Enabled: true, AdoptFactor: math.Inf(1)}},
	} {
		if got := req.AppendJSON([]byte("x")); string(got) != "x" {
			t.Errorf("%+v appended %q", req, got[1:])
		}
		_, want := json.Marshal(strictRunRequest(req))
		err := httpjson.Call(t.Context(), nil, "POST", "http://unused", req, nil, maxReplyLen)
		if want == nil || err == nil || err.Error() != "encoding the request: "+want.Error() {
			t.Errorf("%+v: Call says %v, json.Marshal %v", req, err, want)
		}
	}
}

// plainRunResponse is the reply without its fast reader: json.Unmarshal
// reads it by reflection.
type plainRunResponse RunResponse

// FuzzRunResponseJSON: RunResponse.ReadJSON either refuses a reply and
// leaves the value as it was, or reads it to
// what json.Unmarshal, httpjson.Call's lenient fallback, makes of it;
// and runReply.AppendJSON writes, for the shard result of any reply
// Unmarshal reads, the bytes json.Marshal writes for its wire copy.
// Unmarshal skips an unknown key and matches a case-folded one, so the
// reader must refuse both rather than read them another way. A reply
// as a worker writes it, json.Marshal's bytes for whatever Unmarshal
// made of the input, the reader must take.
func FuzzRunResponseJSON(f *testing.F) {
	raw, err := os.ReadFile(responseWireFile)
	if err != nil {
		f.Fatal(err)
	}
	var pinned map[string]pinnedReply
	if err := json.Unmarshal(raw, &pinned); err != nil {
		f.Fatal(err)
	}
	for _, reply := range pinned {
		f.Add([]byte(reply.Body))
	}
	for _, body := range []string{
		`{}`,
		`{"stats":[],"completed":0}`,
		`{"stats":[{"solution":[]}]}`,
		` {"stats" : [ {"walker":1, "adoptions":2, "yielded":true, "assigns":3, "flips":4} ] } `,
		`null`,
		`{"stats":null}`,
		`{"stats":[{"solution":null}]}`,
		`{"stats":[{"Walker":1}]}`,
		`{"stats":[{"walker":1,"walker":2}]}`,
		`{"stats":[{"strategy":"adaptive"}]}`,
		`{"Completed":1}`,
		`{"completed":1,"extra":true}`,
		`{"elapsed_ns":1.5}`,
		`{"stats":[{"cost":9223372036854775808}]}`,
		`{"Cancelled":true}`,
		`{"cancelled":true,"cancelled":false}`,
		`{"cancelled":true} {}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// read reports whether the fast reader took data.
		read := func(data []byte) bool {
			untouched := RunResponse{Completed: -1, Stats: []WalkerStatWire{{Walker: -1}}}
			resp := untouched
			if !resp.ReadJSON(data) {
				if !reflect.DeepEqual(resp, untouched) {
					t.Fatalf("%q: refused, but the reply became %+v", data, resp)
				}
				return false
			}
			var plain plainRunResponse
			if err := json.Unmarshal(data, &plain); err != nil {
				t.Fatalf("fast reader took %q, json.Unmarshal refuses it: %v", data, err)
			}
			if !reflect.DeepEqual(RunResponse(plain), resp) {
				t.Fatalf("%q: fast reader %+v, json.Unmarshal %+v", data, resp, plain)
			}
			return true
		}
		read(data)
		// A worker's reply always carries its stats array.
		var sent plainRunResponse
		if json.Unmarshal(data, &sent) == nil && sent.Stats != nil {
			if body, err := json.Marshal(sent); err == nil && !read(body) {
				t.Fatalf("the fast reader refuses what a worker sends: %s", body)
			}
			// The worker writes the reply of a shard's result as
			// json.Marshal writes its wire copy.
			res := resultFromWire(RunResponse(sent))
			want, err := json.Marshal(wireResult(res))
			if err != nil {
				t.Fatal(err)
			}
			if got := (*runReply)(&res).AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON\n%s\njson.Marshal(wireResult)\n%s", got, want)
			}
		}
	})
}
