package dist

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
)

// fleetSpec is one job shape of the allocation gate.
type fleetSpec struct {
	problem string
	size    int
	params  map[string]int
}

var (
	// tinyFleetSpecs and mediumFleetSpecs are the repository benchmark's
	// fleet-mixed request shapes.
	tinyFleetSpecs = []fleetSpec{
		{"costas", 9, nil},
		{"queens", 32, nil},
		{"all-interval", 10, nil},
		{"timetable", 20, map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
	}
	mediumFleetSpecs = []fleetSpec{
		{"costas", 14, nil},
		{"timetable", 100, map[string]int{"slots": 10}},
	}
)

// job is the two-walker job of the spec with the engine options
// admission would tune for it.
func (s fleetSpec) job(t testing.TB, seed uint64) JobSpec {
	t.Helper()
	p, err := problems.NewWithParams(s.problem, s.size, s.params)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{Problem: s.problem, Size: s.size, Params: s.params, Walkers: 2, Seed: seed, Engine: core.TunedOptions(p)}
}

// TestFleetAllocationGate is the repository benchmark's
// alloc_bytes_per_job for its fleet-mixed request shapes, minus the
// front door: two-walker wall-clock jobs through Coordinator.Run over
// two one-slot in-process workers, bytes allocated a job, coordinator
// and workers together, against a committed budget. The budgets sit
// about 4 % above what a job reads with the run request written on the
// stack and read into a value that stays there, and the run reply
// written straight from the shard's result (35.0 KB tiny, 51.2 KB
// medium on go1.24 amd64). Each earlier shape breaks them: the request
// boxed on both ends and the reply copied into its wire form read
// 36.4 KB and 52.6 KB; with encoding/json on both ends and a derived
// context a run, 40.8 KB and 57.1 KB.
func TestFleetAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates differently; the budgets are for a plain build")
	}
	f := newFleet(t, 1, 1)
	for _, tc := range []struct {
		name   string
		specs  []fleetSpec
		rounds int
		budget uint64 // bytes per job
	}{
		{"tiny", tinyFleetSpecs, 40, 36_400},
		{"medium", mediumFleetSpecs, 10, 53_300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var jobs []JobSpec
			for round := 0; round < tc.rounds; round++ {
				for k, spec := range tc.specs {
					jobs = append(jobs, spec.job(t, uint64(1+round*len(tc.specs)+k)))
				}
			}
			play := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for _, job := range jobs {
					res, err := f.coord.Run(context.Background(), job)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Solved {
						t.Fatalf("%s-%d seed %d: not solved", job.Problem, job.Size, job.Seed)
					}
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			play() // warm the pools, the connections and lazy set-up
			perJob := play() / uint64(len(jobs))
			t.Logf("%s: %d B a job, budget %d", tc.name, perJob, tc.budget)
			if perJob > tc.budget {
				t.Errorf("%s: %d B allocated a job, budget %d", tc.name, perJob, tc.budget)
			}
		})
	}
}

// BenchmarkFleetJob is one two-walker wall-clock job through
// Coordinator.Run over two one-slot in-process workers. Every op is the
// same job; allocs/op and B/op count coordinator and workers together.
func BenchmarkFleetJob(b *testing.B) {
	for _, spec := range []fleetSpec{tinyFleetSpecs[0], tinyFleetSpecs[3]} {
		b.Run(fmt.Sprintf("%s-%d", spec.problem, spec.size), func(b *testing.B) {
			f := newFleet(b, 1, 1)
			job := spec.job(b, 1)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := f.coord.Run(context.Background(), job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
