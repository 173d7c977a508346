package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/httpjson"
)

// strictBody is solveBody without its fast reader: httpjson.Decode
// reads it with encoding/json alone.
type strictBody solveBody

// FuzzDecodeRequest hammers the POST /v1/solve payload decoder with
// arbitrary bytes: no panics, and every failure wraps the typed
// ErrBadRequest the HTTP layer maps to 400. Deep validation of a
// decoded request stays with the scheduler (normalizeRequest), which
// reports through the same typed error. It is differential: whenever
// solveBody's fast reader takes a body, the strict encoding/json decode
// of the same bytes must succeed and give the same value.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"problem":"costas","size":10,"walkers":2,"wait":true}`))
	// The retired portfolio field: rejected as unknown.
	f.Add([]byte(`{"problem":"queens","portfolio":[{"strategy":"adaptive","weight":2},{"strategy":"metropolis"}],"timeout_ms":500}`))
	f.Add([]byte(`{"problem":7}`))
	f.Add([]byte(`{"walkers":-1,"seed":18446744073709551615}`))
	f.Add([]byte(`{"problem":"costas","walkers":2,"exchange":{"enabled":true,"period_iters":64,"adopt_factor":1.5,"perturb_swaps":2}}`))
	// The retired strategy field: rejected as unknown.
	f.Add([]byte(`{"problem":"costas","max_iterations":-1,"strategy":"metropolis","exchange":{"enabled":true,"adopt_factor":0.5}}`))
	// Data after the body: rejected.
	f.Add([]byte(`{"problem":"costas","size":8,"wait":true}{"problem":"queens"}`))
	f.Add([]byte(`{"problem":"costas","size":8,"wait":true} trailing garbage`))
	// The fast reader's canonical shape, and its edges.
	f.Add([]byte(`{"problem":"timetable","size":20,"params":{"slots":6,"rooms":4,"teachers":4},"walkers":2,"seed":1,"wait":true}`))
	f.Add([]byte(` {"problem":"queens", "params":{},"max_iterations":-9223372036854775808,"max_runs":0,"timeout_ms":-0,"tenant":"a<b&c","priority":"low","wait":false}` + "\n"))
	f.Add([]byte(`{"problem":"costas","params":{"slots":6,"slots":7}}`))
	f.Add([]byte(`{"problem":"costas","Size":8,"seed":18446744073709551616}`))
	f.Add([]byte(`{"problem":"cost\u0061s","size":8.0,"walkers":1e1,"tenant":null}`))
	f.Add([]byte(`{"problem":"costas","problem":"queens"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast solveBody
		if fast.ReadJSON(data) {
			var strict strictBody
			if err := httpjson.Decode(bytes.NewReader(data), maxSolveBodyLen, &strict); err != nil {
				t.Fatalf("fast reader took %q, the strict decoder refuses it: %v", data, err)
			}
			if !reflect.DeepEqual(solveBody(strict), fast) {
				t.Fatalf("%q: fast reader %+v, strict decoder %+v", data, fast, strict)
			}
		}
		body, err := decodeSolveBody(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		// A decoded body must be safely admissible or rejectable: run
		// it through the same validation Submit uses and require any
		// rejection to be the typed bad-request error.
		s := New(Config{Slots: 2, QueueDepth: 1})
		defer s.Close()
		if _, _, err := s.normalizeRequest(&body.Request); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("normalizeRequest error %v does not wrap ErrBadRequest", err)
		}
	})
}

// plainJob is Job without its methods: json.Marshal encodes it by
// reflection.
type plainJob Job

// FuzzJobJSON: Job.AppendJSON writes exactly what json.Marshal writes
// for the same Job, and httpjson.Write sends that plus a newline. A Job
// is fuzzed as a JSON body unmarshalled into it (the seeds are the
// bodies of the reply wire file, so every field starts populated) with
// an arbitrary string, invalid UTF-8 included, put into its free-text
// fields and its params.
func FuzzJobJSON(f *testing.F) {
	raw, err := os.ReadFile(replyWireFile)
	if err != nil {
		f.Fatal(err)
	}
	var pinned map[string]pinnedReply
	if err := json.Unmarshal(raw, &pinned); err != nil {
		f.Fatal(err)
	}
	for _, reply := range pinned {
		f.Add([]byte(reply.Body), "")
	}
	f.Add([]byte(`{"request":{"params":{"b":1,"a":-2,"<":3},"exchange":{"adopt_factor":1e-7},"autosize":{"min_gain":1e21}},"submitted_at":"2026-10-17T07:04:54+05:30"}`), "\u2028\xff<&>\"\\\x01\x7f")
	f.Add([]byte(`{"result":{"solution":[]},"started_at":"0001-01-01T00:00:00Z"}`), "")
	f.Fuzz(func(t *testing.T, body []byte, s string) {
		var job Job
		_ = json.Unmarshal(body, &job) // whatever it fills in is a Job
		if s != "" {
			job.Error += s
			job.Request.Tenant = s
			if job.Request.Params == nil {
				job.Request.Params = make(map[string]int)
			}
			job.Request.Params[s] = len(s)
		}
		want, err := json.Marshal(plainJob(job))
		if err != nil {
			t.Skipf("json.Marshal refuses the job: %v", err)
		}
		if got := job.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON\n%s\njson.Marshal\n%s", got, want)
		}
		rec := httptest.NewRecorder()
		httpjson.Write(rec, http.StatusOK, job)
		if !bytes.Equal(rec.Body.Bytes(), append(want, '\n')) {
			t.Fatalf("httpjson.Write\n%s\njson.Marshal\n%s", rec.Body.Bytes(), want)
		}
	})
}
