package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

// allocated returns the bytes the process allocated while fn ran. The
// tests below run nothing else meanwhile, so it is fn's own count but
// for a runtime background allocation now and then, which the budgets'
// margins absorb.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// discard is a ResponseWriter that keeps the status and drops the body,
// so a job's count has no client in it.
type discard struct {
	hdr  http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.hdr }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

type gateSpec struct {
	Problem string         `json:"problem"`
	Size    int            `json:"size"`
	Params  map[string]int `json:"params,omitempty"`
}

// TestAllocationGate is the repository benchmark's alloc_bytes_per_job
// for its search-fd, small-local and fleet-mixed request shapes, as a
// test any box can hold: the same front door (POST /v1/solve, wait, two
// walkers, fixed seeds) played in-process, bytes allocated per job
// against a committed budget. Fleet-mixed runs its jobs over two
// one-slot workers on loopback, as the benchmark does, and counts front
// door, coordinator and workers together. Each budget sits about a
// tenth above what a job read at the least of three plays when it was
// set, 4.6-4.9 KB, 3.6-3.7 KB and 32.0-32.2 KB (small-local's and
// fleet-mixed's now read 2.7 KB and 31.3 KB, but how many of their
// second walkers start is the scheduler's doing, DESIGN.md §7; both of
// search-fd's always start): every walker an instance an earlier
// walker of its spec handed back (a clone of the model the process's
// spec cache built on the spec's first resolve, or a construction where
// there is no model, only when none is free: no construction or
// reduction a job, at admission or on a worker), every Solve on a
// pooled engine whose buffers are reused, compact responses, the job
// run on the handler's goroutine, walkers that keep one configuration,
// a reduction that copies nothing, a request read and a reply written
// without reflection, the run request and reply crossing the fleet hop
// unboxed, the answer condensed once into the job's record, which its
// snapshots share, and a run's walkers stopped through a shared flag,
// not a derived context. What each earlier shape read: indented
// responses through the dispatcher 62 KB and 13.3 KB; building and
// reducing every
// walker's instance and a discarded probe 331 KB and 18.6 KB; a walker
// that copied its best configuration and a reduction that copied the
// session lists 48.2 KB and 8.6 KB; the request and the reply through
// encoding/json 41.8 KB and 8.2 KB; fleet-mixed with a template built
// at admission and its run messages boxed 45.8 KB; one template built
// and reduced a job, memoizing only a spec's options, 40.2 KB, 6.9 KB
// and 41.0 KB; a clone or a construction every walker and a fresh
// engine and buffers every Solve 22.3 KB, 6.2 KB and 37.6 KB; the
// solution copied a snapshot, a derived run context and the options
// moved to the heap 7.1 KB, 3.6 KB and 32.1 KB. One clone a walker in
// a search-fd job is 9 KB, which breaks its budget, as each of the
// other earlier shapes does one of the three. The finer counts,
// one reduction a spec, no clone a warm job and a walker's working set,
// are problems.TestTemplateAllocations and
// problems.TestWalkerAllocations.
func TestAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates differently; the budgets are for a plain build")
	}
	tiny := []gateSpec{
		{"costas", 9, nil},
		{"queens", 32, nil},
		{"all-interval", 10, nil},
		{"timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
	}
	for _, tc := range []struct {
		name   string
		specs  []gateSpec
		rounds int
		budget uint64 // bytes per job
		fleet  bool   // over two one-slot workers, as cmd/serve -workers runs
	}{
		{"search-fd", []gateSpec{
			{"timetable", 200, map[string]int{"slots": 8}},
			{"timetable", 160, map[string]int{"slots": 8}},
			{"timetable", 100, map[string]int{"slots": 10}},
			{"timetable", 240, map[string]int{"slots": 8}},
		}, 4, 5_400, false},
		{"small-local", tiny, 50, 4_100, false},
		// The benchmark's pattern: every fifth job medium, the two medium
		// specs alternating.
		{"fleet-mixed", append(append(append(tiny[:4:4], gateSpec{"costas", 14, nil}), tiny...),
			gateSpec{"timetable", 100, map[string]int{"slots": 10}}), 10, 35_500, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Slots: 2}
			if tc.fleet {
				cfg.Backend = gateFleet(t)
			}
			s := New(cfg)
			defer s.Close()
			h := NewHandler(s)
			var bodies [][]byte
			for round := 0; round < tc.rounds; round++ {
				for k, spec := range tc.specs {
					body, err := json.Marshal(struct {
						gateSpec
						Walkers int    `json:"walkers"`
						Seed    uint64 `json:"seed"`
						Wait    bool   `json:"wait"`
					}{spec, 2, uint64(1 + round*len(tc.specs) + k), true})
					if err != nil {
						t.Fatal(err)
					}
					bodies = append(bodies, body)
				}
			}
			w := &discard{hdr: make(http.Header)}
			play := func() uint64 {
				reqs := make([]*http.Request, len(bodies))
				for i, body := range bodies {
					reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
				}
				return allocated(func() {
					for _, req := range reqs {
						w.code = http.StatusOK
						h.ServeHTTP(w, req)
						if w.code != http.StatusOK {
							t.Fatalf("status %d", w.code)
						}
					}
				})
			}
			play() // warm the pools and lazy set-up every job after the first reuses
			// The least of three plays: a walker whose spec's free
			// instance sits in another P's private pool slot, which no
			// other P can take from, clones one instead, and how often
			// that happens is the scheduler's doing, not the code's. One
			// play of search-fd's 16 jobs read 6 946-8 529 B when the
			// least of three read 6.8-7.4 KB.
			perJob := min(play(), play(), play()) / uint64(len(bodies))
			t.Logf("%s: %d B a job, budget %d", tc.name, perJob, tc.budget)
			if perJob > tc.budget {
				t.Errorf("%s: %d B allocated a job, budget %d", tc.name, perJob, tc.budget)
			}
		})
	}
}

// gateFleet is the benchmark's fleet: a coordinator over two one-slot
// workers, each behind its own loopback server, as cmd/worker serves
// one. The scheduler it is handed to closes the coordinator.
func gateFleet(t *testing.T) *dist.Coordinator {
	t.Helper()
	var urls []string
	for k := 0; k < 2; k++ {
		wk := dist.NewWorker(dist.WorkerConfig{Slots: 1})
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(func() {
			srv.Close()
			wk.Close()
		})
		urls = append(urls, srv.URL)
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// BenchmarkSolveHandler is one waited two-walker job through the front
// door — POST /v1/solve into NewHandler's ServeHTTP, no network — on an
// idle two-slot pool: decode, admission, the run on the handler's
// goroutine and the encoded answer. Every op is the same request, so it
// searches the same walks; allocs/op is the serving path's count.
func BenchmarkSolveHandler(b *testing.B) {
	for _, spec := range []gateSpec{
		{"costas", 9, nil},
		{"timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
	} {
		b.Run(fmt.Sprintf("%s-%d", spec.Problem, spec.Size), func(b *testing.B) {
			s := New(Config{Slots: 2})
			defer s.Close()
			h := NewHandler(s)
			body, err := json.Marshal(struct {
				gateSpec
				Walkers int    `json:"walkers"`
				Seed    uint64 `json:"seed"`
				Wait    bool   `json:"wait"`
			}{spec, 2, 1, true})
			if err != nil {
				b.Fatal(err)
			}
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/solve", rd)
			w := &discard{hdr: make(http.Header)}
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				w.code = http.StatusOK
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status %d", w.code)
				}
			}
		})
	}
}

// TestRejectBeforeBuild: a request that is a plain 400 is refused
// before anything is built. Every case names a 240-session timetable
// that nothing has resolved before, whose construction alone is over
// 30 KB — the control case shows this test sees it — and
// each refusal must cost a small fraction of that. Each try names a
// spec of its own: once resolved, a spec costs admission nothing, so a
// refusal that came after a resolve would cost a construction on its
// first try only. The two cap cases ask for more than the registry
// builds (one session over timetable's MaxSize, or a million slots): a
// refusal that came after the construction would cost megabytes.
func TestRejectBeforeBuild(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	base := Request{Problem: "timetable", Size: 240, Walkers: 2, Seed: 1}
	info, err := problems.Describe(base.Problem)
	if err != nil {
		t.Fatal(err)
	}
	var built uint64
	{
		req := base
		req.Params = unresolvedTimetable()
		built = allocated(func() {
			if _, _, err := s.normalizeRequest(&req); err != nil {
				t.Fatal(err)
			}
		})
		if built < 30_000 {
			t.Fatalf("admitting a 240-session timetable allocated %d B; the control no longer builds what it was chosen for", built)
		}
	}
	for name, mutate := range map[string]func(*Request){
		"walkers above the pool": func(r *Request) { r.Walkers = 3 },
		"negative walkers":       func(r *Request) { r.Walkers = -1 },
		"negative iterations":    func(r *Request) { r.MaxIterations = -1 },
		"negative runs":          func(r *Request) { r.MaxRuns = -1 },
		"negative timeout":       func(r *Request) { r.TimeoutMS = -1 },
		"tenant too long":        func(r *Request) { r.Tenant = strings.Repeat("t", maxTenantLen+1) },
		"unknown priority":       func(r *Request) { r.Priority = "urgent" },
		"exchange adopt factor":  func(r *Request) { r.Exchange = &multiwalk.ExchangeOptions{Enabled: true, AdoptFactor: 0.5} },
		"autosize with walkers":  func(r *Request) { r.AutoSize = &AutoSizeSpec{} },
		"size above the cap":     func(r *Request) { r.Size = info.MaxSize + 1 },
		"slots above the cap":    func(r *Request) { r.Params = map[string]int{"slots": 1 << 20} },
	} {
		t.Run(name, func(t *testing.T) {
			// The cheapest of a few tries: a construction is in every one
			// of them or in none, a stray background allocation is not.
			cost := uint64(math.MaxUint64)
			for try := 0; try < 3; try++ {
				req := base
				req.Params = unresolvedTimetable()
				mutate(&req)
				var err error
				cost = min(cost, allocated(func() { _, err = s.Submit(req) }))
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("err = %v, want ErrBadRequest", err)
				}
			}
			if cost > built/8 {
				t.Errorf("the refusal allocated %d B; admission builds the instance (%d B) before it checks this", cost, built)
			}
		})
	}
}

// TestFinishedJobsReleaseTheirTemplates: a finished job stays in the
// store for ResultTTL (10 min by default) so that it can be fetched, and
// must keep only its record and result meanwhile. It used to keep its
// factory, which holds the job's template, and its Progress hook: a
// waited timetable-240 job left 37.4 KB on the heap after GC, about
// 2.2 GB at 100 jobs/s over the default TTL (3.6 KB read since). It
// also kept its run's cancel, and with it the run's context and deadline
// timer: a waited costas-9 job, which keeps little else, left 1 516 B and
// 9.1 objects, and leaves 1 270 B and 6.1 without them. Waited jobs under
// a one-hour TTL must leave less than the budgets a job after GC (a
// fifth as many jobs under -race, which runs each about fifteen times
// slower).
func TestFinishedJobsReleaseTheirTemplates(t *testing.T) {
	for _, tc := range []struct {
		name    string
		req     Request
		jobs    int
		bytes   int64   // per job
		objects float64 // per job; 0 leaves them unchecked
	}{
		{"timetable-240", Request{Problem: "timetable", Size: 240, Params: map[string]int{"slots": 8}, Walkers: 2}, 200, 8_000, 0},
		{"costas-9", Request{Problem: "costas", Size: 9, Walkers: 2}, 5_000, 1_450, 7.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := tc.jobs
			if raceEnabled {
				jobs /= 5
			}
			s := New(Config{Slots: 2, ResultTTL: time.Hour})
			defer s.Close()
			heap := func() (bytes, objects uint64) {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC() // the second also empties the sync.Pools' victim caches
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc, ms.HeapObjects
			}
			bytes0, objects0 := heap()
			req := tc.req
			for k := 0; k < jobs; k++ {
				req.Seed = uint64(1 + k)
				job, err := s.SubmitWait(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if job.State != StateSolved {
					t.Fatalf("seed %d: state %s", req.Seed, job.State)
				}
			}
			if got := s.Stats().JobsStored; got != jobs {
				t.Fatalf("%d jobs stored, want all %d", got, jobs)
			}
			bytes1, objects1 := heap()
			perJob := (int64(bytes1) - int64(bytes0)) / int64(jobs)
			objects := (float64(objects1) - float64(objects0)) / float64(jobs)
			t.Logf("%d B and %.1f objects retained a finished job, budgets %d B and %.1f", perJob, objects, tc.bytes, tc.objects)
			if perJob > tc.bytes {
				t.Errorf("a finished job keeps %d B on the heap, budget %d", perJob, tc.bytes)
			}
			if tc.objects > 0 && objects > tc.objects {
				t.Errorf("a finished job keeps %.1f objects on the heap, budget %.1f", objects, tc.objects)
			}
		})
	}
}
