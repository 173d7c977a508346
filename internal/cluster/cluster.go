// Package cluster simulates the parallel platforms of the paper's
// evaluation — the Hitachi HA8000 supercomputer and the Grid'5000 Suno
// and Helios clusters — so the multi-walk speedup experiments can be
// regenerated on any machine (see DESIGN.md §2 for the substitution
// argument).
//
// The simulation is deliberately faithful to what actually determines
// multi-walk wall time: because walks are fully independent ("no
// communication except completion"), a k-core job finishes at
//
//	min over walkers of (launch stagger + walk iterations / core speed)
//	+ completion-detection latency,
//
// where walk iteration counts are drawn from the benchmark's measured
// sequential runtime distribution. Platform-specific parameters are the
// node geometry, per-node clock jitter, launch overheads and the
// iteration rate of one core.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Platform describes a parallel machine.
type Platform struct {
	// Name labels the platform in harness output.
	Name string
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the number of cores per node.
	CoresPerNode int
	// ClockGHz is the nominal core clock, informational.
	ClockGHz float64
	// IterationsPerSecond is the calibrated rate at which one core
	// executes solver iterations; it converts iteration draws into
	// seconds. Benchmark harnesses calibrate it from real local runs.
	IterationsPerSecond float64
	// LaunchOverheadSec is the fixed job launch cost (process spawn,
	// binary distribution).
	LaunchOverheadSec float64
	// LaunchStaggerSec is the additional per-node launch delay: node i
	// starts its walkers i*LaunchStaggerSec after the job begins,
	// modelling sequential process placement.
	LaunchStaggerSec float64
	// NodeJitter is the standard deviation of the per-node relative
	// speed factor (1 + jitter*N(0,1), clamped to [0.5, 1.5]),
	// modelling clock and memory heterogeneity.
	NodeJitter float64
	// CompletionLatencySec is the time for the winning walker's
	// completion signal to terminate the job (the paper's only
	// communication).
	CompletionLatencySec float64
}

// Cores returns the platform's total core count.
func (p Platform) Cores() int { return p.Nodes * p.CoresPerNode }

// Validate reports malformed platform descriptions.
func (p Platform) Validate() error {
	if p.Nodes < 1 || p.CoresPerNode < 1 {
		return fmt.Errorf("cluster: platform %q needs at least one node and one core", p.Name)
	}
	if p.IterationsPerSecond <= 0 {
		return fmt.Errorf("cluster: platform %q needs a positive iteration rate", p.Name)
	}
	if p.LaunchOverheadSec < 0 || p.LaunchStaggerSec < 0 || p.CompletionLatencySec < 0 || p.NodeJitter < 0 {
		return fmt.Errorf("cluster: platform %q has negative overheads", p.Name)
	}
	return nil
}

// HA8000 models the University of Tokyo Hitachi HA8000 used in the
// paper: 952 nodes x 16 cores (4x quad-core AMD Opteron 8356, 2.3 GHz).
// Supercomputer interconnect: low launch overheads, little jitter.
func HA8000() Platform {
	return Platform{
		Name:                 "HA8000",
		Nodes:                952,
		CoresPerNode:         16,
		ClockGHz:             2.3,
		IterationsPerSecond:  1, // calibrated by the harness
		LaunchOverheadSec:    0.5,
		LaunchStaggerSec:     0.001,
		NodeJitter:           0.01,
		CompletionLatencySec: 0.005,
	}
}

// Grid5000Suno models the Sophia-Antipolis Suno cluster: 45 Dell
// PowerEdge R410 nodes x 8 cores. Grid middleware: heavier launch
// overheads and more heterogeneity than the supercomputer.
func Grid5000Suno() Platform {
	return Platform{
		Name:                 "Grid5000/Suno",
		Nodes:                45,
		CoresPerNode:         8,
		ClockGHz:             2.27,
		IterationsPerSecond:  1,
		LaunchOverheadSec:    2.0,
		LaunchStaggerSec:     0.01,
		NodeJitter:           0.03,
		CompletionLatencySec: 0.02,
	}
}

// Grid5000Helios models the Sophia-Antipolis Helios cluster: 56 Sun
// Fire X4100 nodes x 4 cores.
func Grid5000Helios() Platform {
	return Platform{
		Name:                 "Grid5000/Helios",
		Nodes:                56,
		CoresPerNode:         4,
		ClockGHz:             2.2,
		IterationsPerSecond:  1,
		LaunchOverheadSec:    2.0,
		LaunchStaggerSec:     0.01,
		NodeJitter:           0.03,
		CompletionLatencySec: 0.02,
	}
}

// Source supplies per-walk sequential runtimes in iterations.
type Source interface {
	// Draw samples the iteration count of one independent walk.
	Draw(r *rng.Rand) float64
	// Mean returns the source's mean iteration count (the sequential
	// expected runtime).
	Mean() float64
}

// EmpiricalSource resamples a measured runtime distribution.
type EmpiricalSource struct {
	sample *stats.Sample
	xs     []float64
	mean   float64
}

// NewEmpiricalSource wraps a measured sample of sequential runtimes.
func NewEmpiricalSource(s *stats.Sample) (*EmpiricalSource, error) {
	if s == nil || s.N() == 0 {
		return nil, errors.New("cluster: empty sample")
	}
	xs, _ := s.ECDF()
	return &EmpiricalSource{sample: s, xs: xs, mean: s.Mean()}, nil
}

// Draw implements Source by uniform resampling.
func (e *EmpiricalSource) Draw(r *rng.Rand) float64 { return e.xs[r.Intn(len(e.xs))] }

// Mean implements Source.
func (e *EmpiricalSource) Mean() float64 { return e.mean }

// Sample returns the wrapped sample (for estimator-based predictions).
func (e *EmpiricalSource) Sample() *stats.Sample { return e.sample }

// ModelSource draws from a fitted shifted-exponential model; useful
// when extrapolating beyond the measured sample's resolution.
type ModelSource struct {
	Model stats.ShiftedExp
}

// Draw implements Source.
func (m ModelSource) Draw(r *rng.Rand) float64 {
	return m.Model.Shift + m.Model.Scale*r.ExpFloat64()
}

// Mean implements Source.
func (m ModelSource) Mean() float64 { return m.Model.Mean() }

// Sim couples a platform with a runtime source.
type Sim struct {
	Platform Platform
	Source   Source
}

// NewSim validates and builds a simulator.
func NewSim(p Platform, src Source) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("cluster: nil source")
	}
	return &Sim{Platform: p, Source: src}, nil
}

// JobResult reports one simulated multi-walk job.
type JobResult struct {
	// Walkers is the job's core count k.
	Walkers int
	// WallSeconds is the job's completion time: min over walkers plus
	// overheads.
	WallSeconds float64
	// WinnerIterations is the winning walk's drawn iteration count.
	WinnerIterations float64
	// NodesUsed is the number of nodes the job spanned.
	NodesUsed int
}

// Job simulates one k-walker job. Walkers fill nodes in order; each
// node gets a speed factor and a launch stagger; the job completes when
// the fastest walker finishes.
func (s *Sim) Job(k int, r *rng.Rand) (JobResult, error) {
	p := s.Platform
	if k < 1 {
		return JobResult{}, fmt.Errorf("cluster: need at least 1 walker, got %d", k)
	}
	if k > p.Cores() {
		return JobResult{}, fmt.Errorf("cluster: %d walkers exceed %s's %d cores", k, p.Name, p.Cores())
	}
	rate := p.IterationsPerSecond
	nodes := (k + p.CoresPerNode - 1) / p.CoresPerNode
	best := -1.0
	bestIters := 0.0
	w := 0
	for node := 0; node < nodes; node++ {
		speed := 1 + p.NodeJitter*r.NormFloat64()
		if speed < 0.5 {
			speed = 0.5
		}
		if speed > 1.5 {
			speed = 1.5
		}
		stagger := float64(node) * p.LaunchStaggerSec
		coresHere := p.CoresPerNode
		if remaining := k - w; remaining < coresHere {
			coresHere = remaining
		}
		for c := 0; c < coresHere; c++ {
			iters := s.Source.Draw(r)
			t := stagger + iters/(rate*speed)
			if best < 0 || t < best {
				best = t
				bestIters = iters
			}
			w++
		}
	}
	wall := p.LaunchOverheadSec + best + p.CompletionLatencySec
	return JobResult{Walkers: k, WallSeconds: wall, WinnerIterations: bestIters, NodesUsed: nodes}, nil
}

// CurvePoint is one (cores, speedup) measurement with a bootstrap-style
// spread from the replication.
type CurvePoint struct {
	Cores     int
	MeanWall  float64
	Speedup   float64
	SpeedupLo float64
	SpeedupHi float64
}

// Curve is a simulated speedup curve: the reproduction of one line of
// the paper's Figs. 1-3.
type Curve struct {
	Platform string
	SeqWall  float64 // mean 1-core wall time (the speedup reference)
	Points   []CurvePoint
}

// SpeedupCurve simulates reps jobs per core count and returns mean
// speedups relative to the platform's sequential (1-core) mean wall
// time, with 95% percentile spreads over replications.
func (s *Sim) SpeedupCurve(ks []int, reps int, seed uint64) (Curve, error) {
	if reps < 2 {
		return Curve{}, errors.New("cluster: need reps >= 2")
	}
	if len(ks) == 0 {
		return Curve{}, errors.New("cluster: empty core list")
	}
	r := rng.New(seed)
	// Sequential reference: mean source runtime on one jitter-free core
	// plus the same overheads a 1-core job pays.
	p := s.Platform
	seq := p.LaunchOverheadSec + s.Source.Mean()/p.IterationsPerSecond + p.CompletionLatencySec

	curve := Curve{Platform: p.Name, SeqWall: seq}
	walls := make([]float64, reps)
	for _, k := range ks {
		sum := 0.0
		for rep := 0; rep < reps; rep++ {
			jr, err := s.Job(k, r)
			if err != nil {
				return Curve{}, err
			}
			walls[rep] = jr.WallSeconds
			sum += jr.WallSeconds
		}
		mean := sum / float64(reps)
		ws, err := stats.New(walls)
		if err != nil {
			return Curve{}, err
		}
		lo := ws.Quantile(0.975) // slower wall -> lower speedup
		hi := ws.Quantile(0.025)
		pt := CurvePoint{
			Cores:    k,
			MeanWall: mean,
			Speedup:  seq / mean,
		}
		if lo > 0 {
			pt.SpeedupLo = seq / lo
		}
		if hi > 0 {
			pt.SpeedupHi = seq / hi
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}
