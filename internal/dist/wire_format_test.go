package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/multiwalk"
)

// wireFormatFile pins the coordinator→worker run request: the body
// shardRequest builds for each case, field names and values.
const wireFormatFile = "testdata/run_request_wire.json"

// wireFormatCases are the shard requests the wire format file pins, one
// per shape of job the coordinator sends.
func wireFormatCases(t *testing.T) map[string]RunRequest {
	t.Helper()
	const epoch = "c0000abcd"
	shard := func(id string, start, count int) *assignment {
		return &assignment{start: start, count: count, runID: epoch + "-" + id}
	}

	queens := tunedEngine(t, "queens", 8)
	queens.InitialConfig = []int{3, 6, 2, 7, 1, 4, 0, 5}

	return map[string]RunRequest{
		"tuned-costas": shardRequest(ModeRun,
			&JobSpec{Problem: "costas", Size: 12, Walkers: 2, Seed: 42, Engine: tunedEngine(t, "costas", 12)},
			shard("job000001-s0", 0, 2), &shardParams{}),
		"queens-initial-config": shardRequest(ModeVirtual,
			&JobSpec{Problem: "queens", Size: 8, Walkers: 3, Seed: 7, Engine: queens},
			shard("job000002-s1", 1, 2), &shardParams{deadline: 1500}),
		"exchange": shardRequest(ModeRun,
			&JobSpec{Problem: "magic-square", Size: 6, Walkers: 2, Seed: 11, Engine: tunedEngine(t, "magic-square", 6),
				Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 1.5, PerturbSwaps: 3}},
			shard("job000004-s0", 0, 1), &shardParams{deadline: 60000}),
		"speculating": shardRequest(ModeRun,
			&JobSpec{Problem: "costas", Size: 14, Walkers: 4, Seed: 13, Engine: tunedEngine(t, "costas", 14)},
			shard("job000005-s1", 2, 2), &shardParams{
				deadline: 30000,
				progress: true,
			}),
	}
}

// TestRunRequestWireFormat pins the body of every kind of shard request
// the coordinator sends. Each case is compared as a decoded JSON object,
// so field order does not matter, and decoding the pinned body must
// give back the request exactly: a renamed, dropped or retyped field
// shows up as a diff of the testdata file. The bytes Call sends,
// RunRequest.AppendJSON's, must be json.Marshal's (the exchange job's
// it leaves to encoding/json), and the worker's fast reader must take
// every pinned body but the exchange job's.
func TestRunRequestWireFormat(t *testing.T) {
	raw, err := os.ReadFile(wireFormatFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	cases := wireFormatCases(t)
	if len(pinned) != len(cases) {
		t.Errorf("%s pins %d cases, the test builds %d", wireFormatFile, len(pinned), len(cases))
	}
	for name, req := range cases {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned body", name)
			continue
		}
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var gotObj, wantObj map[string]any
		if err := json.Unmarshal(got, &gotObj); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantObj); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotObj, wantObj) {
			t.Errorf("%s: request body changed\n got: %s\nwant: %s", name, got, compact(t, want))
		}
		if sent := req.AppendJSON(nil); req.Exchange.Enabled && len(sent) > 0 || !req.Exchange.Enabled && !bytes.Equal(sent, got) {
			t.Errorf("%s: AppendJSON sends\n%s\njson.Marshal writes\n%s", name, sent, got)
		}
		var fast RunRequest
		if took := fast.ReadJSON(want); took == req.Exchange.Enabled {
			t.Errorf("%s: the fast reader took the pinned body: %v, want %v", name, took, !took)
		} else if took && !reflect.DeepEqual(fast, req) {
			t.Errorf("%s: the fast reader reads the pinned body as\n%+v\nwant\n%+v", name, fast, req)
		}
		decoded, err := DecodeRunRequest(bytes.NewReader(want))
		if err != nil {
			t.Errorf("%s: pinned body does not decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(decoded, req) {
			t.Errorf("%s: decoding the pinned body gives\n%+v\nwant\n%+v", name, decoded, req)
		}
	}
}

func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// responseWireFile pins the worker's replies: status and exact body
// bytes of every kind of answer the coordinator reads.
const responseWireFile = "testdata/run_response_wire.json"

var updateWire = flag.Bool("update-wire", false, "rewrite "+responseWireFile+" from the current worker")

// pinnedReply is one entry of responseWireFile.
type pinnedReply struct {
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// responseWireResults are the shard results the run-reply cases encode.
// They are built by hand, not searched for, so that only the encoding
// can move them; elapsed times are fixed for the same reason.
func responseWireResults() map[string]multiwalk.Result {
	return map[string]multiwalk.Result{
		"solved-one-walker": {
			Winner: 0, Solved: true, Completed: 1, Elapsed: 2_345_678,
			Walkers: []multiwalk.WalkerStat{{Walker: 0, Result: core.Result{
				Solved: true, Solution: []int{9, 3, 6, 2, 0, 8, 4, 1, 7, 5, 10}, Cost: 0,
				Iterations: 942, Swaps: 901, LocalMinima: 41, PlateauEscapes: 17, Resets: 3, Restarts: 0,
				Elapsed: 2_101_337,
			}}},
		},
		"two-walker-interrupted-loser": {
			Winner: 1, Solved: true, Completed: 2, Elapsed: 9_876_543,
			Walkers: []multiwalk.WalkerStat{
				{Walker: 2, Result: core.Result{
					Cost: 3, Iterations: 4_470, Swaps: 4_102, LocalMinima: 368,
					PlateauEscapes: 122, Resets: 36, Restarts: 1, Interrupted: true, Elapsed: 9_500_001,
				}},
				{Walker: 3, Result: core.Result{
					Solved: true, Solution: []int{2, 0, 3, 1}, Cost: 0,
					Iterations: 4_468, Swaps: 4_400, LocalMinima: 68, PlateauEscapes: 9, Resets: 6,
					Elapsed: 9_499_870,
				}, Adoptions: 2},
			},
		},
		"never-run-walker": {
			Winner: 0, Solved: true, Completed: 2, Elapsed: 310_042,
			Walkers: []multiwalk.WalkerStat{
				{Walker: 0, Result: core.Result{
					Solved: true, Solution: []int{1, 3, 0, 2}, Cost: 0,
					Iterations: 7, Swaps: 7, Elapsed: 12_345,
				}},
				{Walker: 1, Result: core.Result{Cost: core.CostUnknown, Interrupted: true}},
			},
		},
		"virtual-shard": {
			Winner: 1, Solved: true, Completed: 3, Elapsed: 31_415_926,
			Walkers: []multiwalk.WalkerStat{
				{Walker: 4, Result: core.Result{
					Cost: 2, Iterations: 20_000, Assigns: 18_660, LocalMinima: 1_340,
					PlateauEscapes: 402, Resets: 88, Restarts: 1, Elapsed: 14_000_000,
				}},
				{Walker: 5, Result: core.Result{
					Solved: true, Solution: []int{0, 1, 2, 0, 1, 2}, Cost: 0,
					Iterations: 1_203, Assigns: 1_190, LocalMinima: 13, PlateauEscapes: 4, Resets: 1,
					Elapsed: 1_000_500,
				}},
				{Walker: 6, Result: core.Result{
					Solved: true, Solution: []int{2, 1, 0, 2, 1, 0}, Cost: 0,
					Iterations: 9_999, Assigns: 9_800, LocalMinima: 199, PlateauEscapes: 31, Resets: 12,
					Elapsed: 16_400_000,
				}, Yielded: true},
			},
		},
	}
}

// wireStat converts one walker stat to its wire form.
func wireStat(ws multiwalk.WalkerStat) WalkerStatWire {
	r := ws.Result
	return WalkerStatWire{
		Walker:         ws.Walker,
		Solved:         r.Solved,
		Solution:       r.Solution,
		Cost:           r.Cost,
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

// wireResult converts a shard Result into a RunResponse: the reference
// a worker's reply is held to, json.Marshal(wireResult(res)) being the
// bytes runReply.AppendJSON must write.
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

// responseWireReplies plays every pinned reply against a fresh worker:
// the run replies through the writer handleRun answers with, the cancel
// acks and the error body through the worker's own handler.
func responseWireReplies(t *testing.T) map[string]*httptest.ResponseRecorder {
	t.Helper()
	out := make(map[string]*httptest.ResponseRecorder)
	for name, res := range responseWireResults() {
		rec := httptest.NewRecorder()
		httpjson.Write(rec, http.StatusOK, (*runReply)(&res))
		out[name] = rec
	}

	wk := NewWorker(WorkerConfig{Slots: 4})
	t.Cleanup(wk.Close)
	h := wk.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	release, _, err := wk.reserve(&RunRequest{ID: "c0000abcd-job000001-s1", Mode: ModeRun, Count: 1}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	out["cancel-live"] = serve(http.MethodPost, "/v1/runs/c0000abcd-job000001-s1/cancel", "")
	release()
	out["cancel-not-live"] = serve(http.MethodPost, "/v1/runs/c0000abcd-job000009-s0/cancel", "")
	out["bad-request"] = serve(http.MethodPost, "/v1/run", `{"id":"c0000abcd-job000002-s0","mode":"sideways","problem":"costas"}`)

	// A speculating run's counters, as its walkers' Progress hook leaves
	// them: walkers 2 and 3 under way, walker 4 not started yet.
	const specRun = "c0000abcd-job000005-s1"
	release, run, err := wk.reserve(&RunRequest{ID: specRun, Mode: ModeRun, Start: 2, Count: 3, Progress: true}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []int64{3_120, 4, 2_988, 2} {
		run.cells[i].Store(v)
	}
	out["progress"] = serve(http.MethodGet, "/v1/runs/"+specRun, "")
	release()
	out["progress-unknown-run"] = serve(http.MethodGet, "/v1/runs/"+specRun, "")
	return out
}

// TestRunResponseWireFormat pins every reply a worker sends the
// coordinator byte for byte: a solved run, a shard whose loser was
// interrupted, a walker that never ran (core.CostUnknown), a virtual
// shard, both cancel acks, a 400, a run's progress and the 404 for a
// run the worker does not hold. The run replies must also decode back,
// through the coordinator's own type, to what was encoded.
func TestRunResponseWireFormat(t *testing.T) {
	replies := responseWireReplies(t)
	if *updateWire {
		pinned := make(map[string]pinnedReply, len(replies))
		for name, rec := range replies {
			pinned[name] = pinnedReply{Status: rec.Code, Body: rec.Body.String()}
		}
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(responseWireFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(responseWireFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]pinnedReply
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(replies) {
		t.Errorf("%s pins %d replies, the test plays %d", responseWireFile, len(pinned), len(replies))
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
		// One Write of a known length: the coordinator reads to EOF.
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", name, got, rec.Body.Len())
		}
	}
	for name, res := range responseWireResults() {
		// The reply's writer against its reference, encoding/json.
		want, err := json.Marshal(wireResult(res))
		if err != nil {
			t.Fatal(err)
		}
		if got := (*runReply)(&res).AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON\n%s\njson.Marshal(wireResult)\n%s", name, got, want)
		}
		var decoded RunResponse
		if err := json.Unmarshal([]byte(pinned[name].Body), &decoded); err != nil {
			t.Errorf("%s: pinned body does not decode: %v", name, err)
			continue
		}
		if want := wireResult(res); !reflect.DeepEqual(decoded, want) {
			t.Errorf("%s: the pinned body decodes to\n%+v\nwant\n%+v", name, decoded, want)
		}
		var fast RunResponse
		if !fast.ReadJSON([]byte(pinned[name].Body)) || !reflect.DeepEqual(fast, decoded) {
			t.Errorf("%s: the fast reader reads the pinned body as\n%+v\nwant\n%+v", name, fast, decoded)
		}
	}
	// Two walkers under way, the lower cost of the two.
	var progress RunProgress
	if err := json.Unmarshal([]byte(pinned["progress"].Body), &progress); err != nil {
		t.Errorf("progress: pinned body does not decode: %v", err)
	} else if want := (RunProgress{Iters: 3_120 + 2_988, Walkers: 2, Best: 2}); progress != want {
		t.Errorf("progress: the pinned body decodes to %+v, want %+v", progress, want)
	}
}
