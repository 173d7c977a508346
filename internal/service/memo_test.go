package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/multiwalk"
)

// TestAdmissionVerdictMemo: admission builds a spec's template the
// first time it sees the spec, and answers it from the memo — tuned
// options, no instance — every time after. Fleet-mixed admits the same
// six specs over and over, and its coordinator never calls a job's
// factory, so each admission after the first of its spec builds nothing.
func TestAdmissionVerdictMemo(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	spec := Request{Problem: "timetable", Size: 100, Params: map[string]int{"slots": 10}, Walkers: 2, Seed: 7}

	req := spec
	var miss, hit multiwalk.Options
	var err error
	if built := allocated(func() { _, miss, err = s.normalizeRequest(&req) }); err != nil || built < 14_000 {
		t.Fatalf("the first admission of timetable-100 allocated %d B (%v); it builds the template, 14 KB or more", built, err)
	}
	req = spec
	if cost := allocated(func() { _, hit, err = s.normalizeRequest(&req) }); err != nil || cost >= 1<<10 {
		t.Errorf("the second admission of timetable-100 allocated %d B (%v); it builds nothing, under 1 KB", cost, err)
	}
	if !reflect.DeepEqual(hit.Engine, miss.Engine) {
		t.Errorf("engine options on a hit\n%+v\nwant those of the miss\n%+v", hit.Engine, miss.Engine)
	}

	// The request's own budgets override the memoized options, and
	// leave them as they were.
	req = spec
	req.MaxIterations, req.MaxRuns = 1234, 3
	_, over, err := s.normalizeRequest(&req)
	want := miss.Engine
	want.MaxIterations, want.MaxRuns = 1234, 3
	if err != nil || !reflect.DeepEqual(over.Engine, want) {
		t.Errorf("engine options with budgets on a hit\n%+v (%v)\nwant\n%+v", over.Engine, err, want)
	}
	req = spec
	if _, again, err := s.normalizeRequest(&req); err != nil || !reflect.DeepEqual(again.Engine, miss.Engine) {
		t.Errorf("after an override the memo answers %+v (%v), want %+v", again.Engine, err, miss.Engine)
	}

	// The order params are given in is not part of the key.
	for _, order := range [][]string{{"slots", "rooms", "teachers"}, {"teachers", "rooms", "slots"}, {"rooms", "slots", "teachers"}} {
		params := map[string]int{}
		for _, k := range order {
			params[k] = map[string]int{"slots": 6, "rooms": 4, "teachers": 4}[k]
		}
		req = Request{Problem: "timetable", Size: 20, Params: params, Walkers: 2}
		if _, _, err := s.normalizeRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.verdicts); n != 2 {
		t.Errorf("the memo holds %d specs after timetable-100 and timetable-20 in three orders, want 2", n)
	}

	// A local job on a hit builds its template at its first walker's
	// call instead of at admission: the same search, so one seed
	// answers alike.
	for _, spec := range []Request{
		{Problem: "timetable", Size: 60, Seed: 11},
		{Problem: "costas", Size: 10, Seed: 5},
	} {
		var results []*JobResult
		for call := 0; call < 2; call++ {
			job, err := s.SubmitWait(t.Context(), spec)
			if err != nil || job.Result == nil {
				t.Fatalf("%s-%d: %v, job %+v", spec.Problem, spec.Size, err, job)
			}
			job.Result.ElapsedMS = 0
			results = append(results, job.Result)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s-%d seed %d: on a miss %+v, on a hit %+v", spec.Problem, spec.Size, spec.Seed, results[0], results[1])
		}
	}

	// A refusal answers alike on every call and is never memoized.
	held := len(s.verdicts)
	h := NewHandler(s)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"problem":"timetable","size":3,"params":{"rooms":1,"slots":2},"wait":true}`, http.StatusUnprocessableEntity},
		{`{"problem":"timetable","size":20,"params":{"rooms":0},"wait":true}`, http.StatusBadRequest},
		{`{"problem":"timetable","size":20,"params":{"chairs":3},"wait":true}`, http.StatusBadRequest},
	} {
		for call := 0; call < 3; call++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader([]byte(tc.body))))
			if rec.Code != tc.code {
				t.Errorf("%s, call %d: status %d, want %d", tc.body, call, rec.Code, tc.code)
			}
		}
	}
	if n := len(s.verdicts); n != held {
		t.Errorf("the memo holds %d specs after three refused specs, want %d", n, held)
	}

	// Ten times as many distinct specs as it holds leave it at its cap.
	for size := 4; size < 4+10*verdictMemoCap; size++ {
		req = Request{Problem: "queens", Size: size}
		if _, _, err := s.normalizeRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.verdicts); n != verdictMemoCap {
		t.Errorf("the memo holds %d specs, cap %d", n, verdictMemoCap)
	}
}
