package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/multiwalk"
)

// unresolved counts the specs unresolvedTimetable has handed out.
var unresolved atomic.Int64

// unresolvedTimetable returns params that make a timetable of any size
// a spec nothing in this process has resolved before: room and teacher
// counts no other test names, moved on by each call however often the
// tests repeat. At the default slot count a timetable needs four rooms
// and four teachers; eight or more only make it easier.
func unresolvedTimetable() map[string]int {
	k := int(unresolved.Add(1)) - 1
	return map[string]int{"rooms": 8 + k%1000, "teachers": 8 + k/1000}
}

// TestAdmissionSpecCache: admission resolves a spec through the
// process's spec cache, so it builds the spec's model the first time
// any job names the spec and answers it from the cache — tuned
// options, no instance built — every time after. Fleet-mixed admits
// the same six specs over and over, and its coordinator never calls a
// job's factory, so each admission after the first of its spec builds
// nothing. The cache's key and bounds are problems.TestSpecCacheKey and
// problems.TestSpecCacheBounds.
func TestAdmissionSpecCache(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	spec := Request{Problem: "timetable", Size: 100, Params: unresolvedTimetable(), Walkers: 2, Seed: 7}

	req := spec
	var miss, hit multiwalk.Options
	var err error
	if built := allocated(func() { _, miss, err = s.normalizeRequest(&req) }); err != nil || built < 14_000 {
		t.Fatalf("the first admission of timetable-%d allocated %d B (%v); it builds the model, 14 KB or more", spec.Size, built, err)
	}
	req = spec
	if cost := allocated(func() { _, hit, err = s.normalizeRequest(&req) }); err != nil || cost >= 1<<10 {
		t.Errorf("the second admission of timetable-%d allocated %d B (%v); it builds nothing, under 1 KB", spec.Size, cost, err)
	}
	if !reflect.DeepEqual(hit.Engine, miss.Engine) {
		t.Errorf("engine options on a hit\n%+v\nwant those of the miss\n%+v", hit.Engine, miss.Engine)
	}

	// The request's own budgets override the cached options, and leave
	// them as they were.
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
		t.Errorf("after an override the cache answers %+v (%v), want %+v", again.Engine, err, miss.Engine)
	}

	// A local job's walkers are clones of the cached model whether its
	// admission built it or found it: the same search, so one seed
	// answers alike.
	for _, spec := range []Request{
		{Problem: "timetable", Size: 60, Params: unresolvedTimetable(), Seed: 11},
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

	// A refusal answers alike on every call (the cache keeps none:
	// problems.TestSpecCacheRebuildsEveryRefusal).
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
}
