package cluster

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNamedRegistry(t *testing.T) {
	for _, name := range PlatformNames() {
		p, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%q invalid: %v", name, err)
		}
	}
	if _, err := Named("beowulf"); err == nil {
		t.Fatal("unknown platform accepted")
	}
	ha, _ := Named("ha8000")
	if ha.Cores() != 952*16 {
		t.Fatalf("named ha8000 cores = %d", ha.Cores())
	}
	if p := Local(4); p.Cores() != 4 || p.Nodes != 1 {
		t.Fatalf("Local(4) = %+v", p)
	}
	if p := Local(0); p.Cores() < 1 {
		t.Fatalf("Local(0) has no cores: %+v", p)
	}
}

func TestCalibratedRate(t *testing.T) {
	p := HA8000()
	if got := p.Calibrated(250_000).IterationsPerSecond; got != 250_000 {
		t.Fatalf("Calibrated rate = %v", got)
	}
	if got := p.Calibrated(0).IterationsPerSecond; got != p.IterationsPerSecond {
		t.Fatalf("zero rate should leave the platform unchanged, got %v", got)
	}
	if p.IterationsPerSecond != 1 {
		t.Fatal("Calibrated mutated its receiver")
	}
}

func TestNewCalibratedSim(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 1000 + 9000*r.ExpFloat64()
	}
	sample, err := stats.New(xs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewCalibratedSim(Grid5000Suno(), sample, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Platform.IterationsPerSecond != 40_000 {
		t.Fatalf("sim rate = %v", sim.Platform.IterationsPerSecond)
	}
	curve, err := sim.SpeedupCurve([]int{1, 4, 16}, 100, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 || curve.Points[2].Speedup <= curve.Points[0].Speedup {
		t.Fatalf("degenerate calibrated curve: %+v", curve.Points)
	}
	if _, err := NewCalibratedSim(HA8000(), nil, 1); err == nil {
		t.Fatal("nil sample accepted")
	}
}
