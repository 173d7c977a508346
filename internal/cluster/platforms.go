package cluster

// This file joins the platform simulator to live calibration. The
// original package simulated the paper's machines from bench-harness
// distributions only; with the calibration store (internal/calibrate)
// feeding fitted runtime models and measured iteration rates, the same
// Source/Platform machinery becomes a capacity planner: "what would
// this calibrated workload's speedup curve look like on Grid'5000, or
// on a fleet of N local cores?" (experiments whatif). Two pieces make
// that possible: a name registry so CLIs can select exemplar
// platforms, and a simulator built from calibration output — the
// resolved empirical sample and iteration rate (NewCalibratedSim).

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/stats"
)

// Local models the machine the process runs on: one node, the given
// core count, negligible launch overheads, and a unit iteration rate
// awaiting calibration. cores <= 0 selects GOMAXPROCS.
func Local(cores int) Platform {
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	return Platform{
		Name:                 "local",
		Nodes:                1,
		CoresPerNode:         cores,
		IterationsPerSecond:  1,
		LaunchOverheadSec:    0.001,
		CompletionLatencySec: 0.0001,
	}
}

// platformRegistry maps CLI-friendly names onto the exemplar
// platforms. Local is registered under a fixed default width; callers
// needing a different local core count use Local directly.
var platformRegistry = map[string]func() Platform{
	"ha8000":          HA8000,
	"grid5000-suno":   Grid5000Suno,
	"grid5000-helios": Grid5000Helios,
	"local":           func() Platform { return Local(0) },
}

// PlatformNames lists the registered platform names, sorted.
func PlatformNames() []string {
	names := make([]string, 0, len(platformRegistry))
	for n := range platformRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Named returns a registered exemplar platform by CLI name.
func Named(name string) (Platform, error) {
	f, ok := platformRegistry[name]
	if !ok {
		return Platform{}, fmt.Errorf("cluster: unknown platform %q (known: %v)", name, PlatformNames())
	}
	return f(), nil
}

// Calibrated returns a copy of the platform with its per-core
// iteration rate set from calibration. Non-positive rates leave the
// platform unchanged (the exemplars' unit rate then flags the output
// as uncalibrated rather than silently producing nonsense).
func (p Platform) Calibrated(itersPerSec float64) Platform {
	if itersPerSec > 0 {
		p.IterationsPerSecond = itersPerSec
	}
	return p
}

// NewCalibratedSim builds a simulator for a platform directly from
// calibration-store output: the resolved sequential sample becomes the
// empirical runtime source and the calibrated iteration rate replaces
// the platform's placeholder. This is the unification the calibration
// layer was built for — one store resolution feeds both the service's
// auto-sizing and the capacity-planning simulation.
func NewCalibratedSim(p Platform, sample *stats.Sample, itersPerSec float64) (*Sim, error) {
	src, err := NewEmpiricalSource(sample)
	if err != nil {
		return nil, err
	}
	return NewSim(p.Calibrated(itersPerSec), src)
}
