package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/multiwalk"
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
// for its search-fd and small-local request shapes, as a test any box
// can hold: the same front door (POST /v1/solve, wait, two walkers,
// fixed seeds) played in-process, bytes allocated per job against a
// committed budget. The budgets sit about a tenth above what the
// per-job template reaches (64 KB and 14.5 KB; building and reducing
// every walker's instance and a discarded probe was 331 KB and
// 18.6 KB). One more timetable construction in a search-fd job is
// 27 KB and breaks its budget; the finer count, one reduction and no
// more, is problems.TestTemplateAllocations.
func TestAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates differently; the budgets are for a plain build")
	}
	for _, tc := range []struct {
		name   string
		specs  []gateSpec
		rounds int
		budget uint64 // bytes per job
	}{
		{"search-fd", []gateSpec{
			{"timetable", 200, map[string]int{"slots": 8}},
			{"timetable", 160, map[string]int{"slots": 8}},
			{"timetable", 100, map[string]int{"slots": 10}},
			{"timetable", 240, map[string]int{"slots": 8}},
		}, 4, 71_000},
		{"small-local", []gateSpec{
			{"costas", 9, nil},
			{"queens", 32, nil},
			{"all-interval", 10, nil},
			{"timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
		}, 50, 16_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Slots: 2})
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
			perJob := play() / uint64(len(bodies))
			t.Logf("%s: %d B a job, budget %d", tc.name, perJob, tc.budget)
			if perJob > tc.budget {
				t.Errorf("%s: %d B allocated a job, budget %d", tc.name, perJob, tc.budget)
			}
		})
	}
}

// TestRejectBeforeBuild: a request that is a plain 400 is refused
// before anything is built. Every case names a 240-session timetable,
// whose construction alone is over 30 KB — the control case shows this
// test sees it — and each refusal must cost a small fraction of that.
func TestRejectBeforeBuild(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	base := Request{Problem: "timetable", Size: 240, Params: map[string]int{"slots": 8}, Walkers: 2, Seed: 1}
	var built uint64
	{
		req := base
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
		"unknown strategy":       func(r *Request) { r.Strategy = "no-such-strategy" },
		"portfolio strategy":     func(r *Request) { r.Portfolio = []PortfolioSpec{{Strategy: "no-such-strategy"}} },
		"portfolio weight":       func(r *Request) { r.Portfolio = []PortfolioSpec{{Strategy: "adaptive", Weight: -1}} },
		"portfolio unreachable": func(r *Request) {
			r.Portfolio = []PortfolioSpec{{Strategy: "adaptive", Weight: 2}, {Strategy: "metropolis"}}
		},
		"exchange adopt factor": func(r *Request) { r.Exchange = &multiwalk.ExchangeOptions{Enabled: true, AdoptFactor: 0.5} },
		"autosize with walkers": func(r *Request) { r.AutoSize = &AutoSizeSpec{} },
	} {
		t.Run(name, func(t *testing.T) {
			req := base
			mutate(&req)
			// The cheapest of a few tries: a construction is in every one
			// of them or in none, a stray background allocation is not.
			cost := uint64(math.MaxUint64)
			for try := 0; try < 3; try++ {
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
