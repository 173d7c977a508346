package service

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
)

// replyWireFile pins the solve front door's replies: status and exact
// body bytes of every kind of answer a client reads.
const replyWireFile = "testdata/solve_reply_wire.json"

var updateWire = flag.Bool("update-wire", false, "rewrite "+replyWireFile+" from the current handler")

// pinnedReply is one entry of replyWireFile.
type pinnedReply struct {
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// wireResults are the results the pinned jobs' backend answers with, by
// seed. They are built by hand, not searched for, so that only the
// encoding can move a pinned body.
var wireResults = map[uint64]multiwalk.Result{
	1: {
		Winner: 1, Solved: true, Solution: []int{2, 5, 7, 0, 8, 6, 1, 3, 4},
		WinnerIterations: 311, TotalIterations: 598, Completed: 2, Elapsed: 1_734_000,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Result: core.Result{Cost: 2, Iterations: 287, Interrupted: true}},
			{Walker: 1, Result: core.Result{Solved: true, Iterations: 311}},
		},
	},
	2: {
		Winner: 0, Solved: true, Solution: []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1},
		WinnerIterations: 57, TotalIterations: 101, Completed: 2, Elapsed: 12_902_311,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Result: core.Result{Solved: true, Iterations: 57}},
			{Walker: 1, Result: core.Result{Cost: 1, Iterations: 44, Interrupted: true}},
		},
	},
	3: {
		Winner: 1, Solved: true, Solution: []int{4, 0, 7, 3, 9, 1, 8, 6, 2, 5},
		WinnerIterations: 1_024, TotalIterations: 2_040, Completed: 2, Elapsed: 3_999_999, Adoptions: 3,
		Walkers: []multiwalk.WalkerStat{
			{Walker: 0, Result: core.Result{Cost: 4, Iterations: 1_016}, Yielded: true},
			{Walker: 1, Result: core.Result{Solved: true, Iterations: 1_024}, Adoptions: 3},
		},
	},
	5: {
		Winner: 0, Solved: true, Solution: []int{8, 2, 5, 9, 0, 4, 1, 7, 6, 3},
		WinnerIterations: 2_718, TotalIterations: 2_718, Completed: 1, Elapsed: 2_718_281,
		Walkers: []multiwalk.WalkerStat{{Walker: 0, Result: core.Result{Solved: true, Iterations: 2_718}}},
	},
}

// blockSeed is the seed of the job that holds the whole pool until it
// is cancelled, so that the pinned async job stays queued.
const blockSeed = 99

// wireReplies plays every pinned request through NewHandler on a
// scheduler whose clock ticks a fixed step a stamp and whose backend
// answers from wireResults: waited solves of costas 9, timetable 20 and
// an exchange job; a request echoing autosize, a disabled exchange, a
// tenant that needs escaping and a priority; an async acknowledgement
// of a job queued behind a full pool, its cancellation and a GET of the
// cancelled job; and a 400.
func wireReplies(t *testing.T) map[string]*httptest.ResponseRecorder {
	t.Helper()
	running := make(chan struct{})
	backend := &funcBackend{slots: 2, run: func(ctx context.Context, opts multiwalk.Options) (multiwalk.Result, error) {
		if opts.Seed == blockSeed {
			close(running)
			<-ctx.Done()
			return multiwalk.Result{Truncated: true}, nil
		}
		return wireResults[opts.Seed], nil
	}}
	s := New(Config{Backend: backend, Calibration: seedCalibration(t, 10, 1e6)})
	t.Cleanup(s.Close)
	var ticks atomic.Int64
	base := time.Date(2026, 10, 17, 7, 4, 54, 123_456_789, time.UTC)
	s.now = func() time.Time { return base.Add(time.Duration(ticks.Add(1)) * 1_500_250 * time.Microsecond) }

	h := NewHandler(s)
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	out := map[string]*httptest.ResponseRecorder{
		"solved-costas-9": serve(http.MethodPost, "/v1/solve",
			`{"problem":"costas","size":9,"walkers":2,"seed":1,"wait":true}`),
		"solved-timetable-20": serve(http.MethodPost, "/v1/solve",
			`{"problem":"timetable","size":20,"params":{"slots":6,"rooms":4,"teachers":4},"walkers":2,"seed":2,"wait":true}`),
		"solved-exchange": serve(http.MethodPost, "/v1/solve",
			`{"problem":"costas","size":10,"walkers":2,"seed":3,"exchange":{"enabled":true,"period_iters":64,"adopt_factor":1.5,"perturb_swaps":2},"max_iterations":100000,"timeout_ms":2500,"wait":true}`),
		"echo-autosize-tenant-priority": serve(http.MethodPost, "/v1/solve",
			`{"problem":"costas","size":10,"autosize":{"target_p95":"50ms","max_walkers":2,"min_gain":0.125},"seed":5,"exchange":{"enabled":false,"adopt_factor":2},"max_runs":3,"tenant":"a<b&c","priority":"high","wait":true}`),
		"bad-request": serve(http.MethodPost, "/v1/solve", `{"problem":"costas","walker":2}`),
	}

	if _, err := s.Submit(Request{Problem: "queens", Size: 8, Walkers: 2, Seed: blockSeed}); err != nil {
		t.Fatal(err)
	}
	<-running
	out["async-ack"] = serve(http.MethodPost, "/v1/solve", `{"problem":"costas","size":9}`)
	var ack Job
	if err := json.Unmarshal(out["async-ack"].Body.Bytes(), &ack); err != nil {
		t.Fatalf("async ack %q: %v", out["async-ack"].Body, err)
	}
	out["cancel-queued"] = serve(http.MethodPost, "/v1/jobs/"+ack.ID+"/cancel", "")
	out["get-cancelled"] = serve(http.MethodGet, "/v1/jobs/"+ack.ID, "")
	return out
}

// TestSolveReplyWireFormat pins every reply of the solve front door byte
// for byte, each sent in one Write of a known length. -update-wire
// rewrites the file from the current handler.
func TestSolveReplyWireFormat(t *testing.T) {
	replies := wireReplies(t)
	if *updateWire {
		pinned := make(map[string]pinnedReply, len(replies))
		for name, rec := range replies {
			pinned[name] = pinnedReply{Status: rec.Code, Body: rec.Body.String()}
		}
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replyWireFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(replyWireFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]pinnedReply
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(replies) {
		t.Errorf("%s pins %d replies, the test plays %d", replyWireFile, len(pinned), len(replies))
	}
	for name, rec := range replies {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned reply", name)
			continue
		}
		if rec.Code != want.Status || rec.Body.String() != want.Body {
			t.Errorf("%s: reply changed\n got: %d %q\nwant: %d %q", name, rec.Code, rec.Body.String(), want.Status, want.Body)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", name, got, rec.Body.Len())
		}
	}
}
