package main

import (
	"encoding/json"
	"hash/fnv"

	"repro/internal/rng"
)

// spec names one problem instance as POST /v1/solve names it.
type spec struct {
	Problem string         `json:"problem"`
	Size    int            `json:"size"`
	Params  map[string]int `json:"params,omitempty"`
}

// workload is one fixed job list played through the front door.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json and
	// the README carry the same sentence.
	why string
	// fleet selects the two-worker dist backend over the local one.
	fleet bool
	specs []spec
	// pattern is the repeating block of spec indices: job i takes
	// specs[pattern[i%len(pattern)]].
	pattern []int
	// jobs is the length of one round's list.
	jobs int
	// roundSeconds is how many of -seconds one timed round costs; a
	// round takes less on a quiet box. small-local's rounds are short
	// and many: a job's latency is the fastest of its timings, and a job
	// of 0.1 ms finds the box quiet once in twenty tries even when a
	// neighbour is busy nine tenths of the time.
	roundSeconds int
	// soloEvery puts a pass of solo replays after every soloEvery-th
	// timed round: after every round where a pass costs a quarter of a
	// round, after every second where the jobs are nearly all search and
	// a pass costs what a round costs.
	soloEvery int
	// setups is how many times a run sets up, setup_s being the fastest:
	// several times where a set-up takes half a second, once where it
	// takes three to eight.
	setups int
}

var (
	tinySpecs = []spec{
		{Problem: "costas", Size: 9},
		{Problem: "queens", Size: 32},
		{Problem: "all-interval", Size: 10},
		{Problem: "timetable", Size: 20, Params: map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
	}
	roundRobin4 = []int{0, 1, 2, 3}
)

// workloads is the benchmark; see README.md for what each one is for.
// On the 2-vCPU reference box a round of the first two and the last
// takes 1.5 s with the host to itself and 3-4 s with a neighbour on it,
// a round of small-local 0.1 to 0.3 s.
var workloads = []workload{
	{
		name: "search-perm",
		why:  "the paper's four permutation benchmarks at 2-60 ms a job: core+problems do >95% of the work, so hot-loop changes show here and serving changes must not",
		specs: []spec{
			{Problem: "all-interval", Size: 22},
			{Problem: "magic-square", Size: 9},
			{Problem: "costas", Size: 15},
			{Problem: "perfect-square", Size: 9},
		},
		pattern:      roundRobin4,
		jobs:         100,
		roundSeconds: 4,
		soloEvery:    2,
		setups:       1,
	},
	{
		name: "search-fd",
		why:  "finite-domain timetables at 10-30 ms a job: the same engine through assign moves, domain reduction and MBs allocated per job, so a gain for one engine loop that costs the other shows",
		specs: []spec{
			{Problem: "timetable", Size: 200, Params: map[string]int{"slots": 8}},
			{Problem: "timetable", Size: 160, Params: map[string]int{"slots": 8}},
			{Problem: "timetable", Size: 100, Params: map[string]int{"slots": 10}},
			{Problem: "timetable", Size: 240, Params: map[string]int{"slots": 8}},
		},
		pattern:      roundRobin4,
		jobs:         100,
		roundSeconds: 4,
		soloEvery:    2,
		setups:       1,
	},
	{
		name:         "small-local",
		why:          "2000 sub-millisecond jobs on the local backend: search is under a third of latency, so decode, admission, queue hand-off, walker spawn/join and encode are what is measured",
		specs:        tinySpecs,
		pattern:      roundRobin4,
		jobs:         2000,
		roundSeconds: 1,
		soloEvery:    1,
		setups:       5,
	},
	{
		name:  "fleet-mixed",
		why:   "the same front door over a coordinator and two one-slot workers: p50 is a tiny job and reads the per-job cost of distribution, the time-weighted metrics read the cross-worker first-solution path",
		fleet: true,
		specs: append(append([]spec(nil), tinySpecs...),
			spec{Problem: "costas", Size: 14},
			spec{Problem: "timetable", Size: 100, Params: map[string]int{"slots": 10}},
		),
		// Every fifth job is medium, alternating the two medium specs.
		pattern:      []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 5},
		jobs:         200,
		roundSeconds: 4,
		soloEvery:    1,
		setups:       1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// job is one request of a round.
type job struct {
	spec int    // index into workload.specs
	seed uint64 // the job's search seed, echoed in body
	body []byte // marshalled POST /v1/solve payload
}

// solveBody is the request every job sends: two walkers, explicit
// seed, synchronous wait. Field order fixes the bytes.
type solveBody struct {
	spec
	Walkers   int    `json:"walkers"`
	Seed      uint64 `json:"seed"`
	TimeoutMS int64  `json:"timeout_ms"`
	Wait      bool   `json:"wait"`
}

const walkersPerJob = 2

// panel fixes the search seeds every run plays: the k-th search seed of
// spec s is the k-th draw of a stream seeded by (panel, workload, s).
const panel = 2012

// buildJobs generates one round's list of n jobs.
//
// Every seed plays the same multiset of (spec, search seed) jobs, the
// panel's; seed decides, per spec, the order in which that spec's
// search seeds are issued. The reason is measured: time to solution is
// close to exponentially distributed (CV 0.7-1.1 on every medium spec
// here), so a fresh draw of 100 search seeds moves a round's total work
// by about +-10%, and ten runs under ten seeds would measure the luck of
// the draw. A fixed panel makes a workload's runtime distribution a
// fixed object and leaves only the machine's noise between two runs.
func buildJobs(w *workload, seed uint64, n int) []job {
	counts := make([]int, len(w.specs))
	for i := 0; i < n; i++ {
		counts[w.pattern[i%len(w.pattern)]]++
	}
	h := fnv.New64a()
	h.Write([]byte(w.name))
	name := h.Sum64()
	seeds := make([][]uint64, len(w.specs))
	for s, c := range counts {
		// One stream per (panel, workload, spec): a shorter list plays a
		// prefix of the longer one's search seeds.
		salt := name ^ uint64(s)<<56
		stream := rng.New(panel ^ salt)
		order := rng.New(^(seed ^ salt)).Perm(c)
		seeds[s] = make([]uint64, c)
		for k := 0; k < c; k++ {
			// 0 would let the scheduler pick its own seed.
			seeds[s][order[k]] = stream.Uint64() | 1
		}
	}
	jobs := make([]job, n)
	next := make([]int, len(w.specs))
	for i := range jobs {
		s := w.pattern[i%len(w.pattern)]
		j := job{spec: s, seed: seeds[s][next[s]]}
		next[s]++
		body, err := json.Marshal(solveBody{spec: w.specs[s], Walkers: walkersPerJob, Seed: j.seed, TimeoutMS: 60000, Wait: true})
		if err != nil {
			panic(err) // a struct of ints, strings and a map[string]int always marshals
		}
		j.body = body
		jobs[i] = j
	}
	return jobs
}
