package core

import (
	"context"
	"testing"

	"repro/internal/perm"
)

// The Monitor directives belong to the one engine loop, so each test
// here runs over both encodings (bothEncodings, engine_test.go) and
// expects the same counts from each.

// TestMonitorCadence: the monitor must fire every CheckEvery iterations
// with the current iteration count.
func TestMonitorCadence(t *testing.T) {
	bothEncodings(t, func(t *testing.T, enc func(toy) Problem) {
		var calls []int64
		opts := Options{
			Seed:          1,
			MaxIterations: 100,
			MaxRuns:       1,
			CheckEvery:    10,
			Monitor: func(iter int64, cost int, cfg []int) Directive {
				calls = append(calls, iter)
				if cost < 0 || len(cfg) != 10 {
					t.Errorf("bad monitor args: cost=%d len=%d", cost, len(cfg))
				}
				return Directive{}
			},
		}
		res, err := Solve(context.Background(), enc(floorProblem{sortProblem{10}}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved {
			t.Fatal("floorProblem cannot be solved")
		}
		if len(calls) != 10 {
			t.Fatalf("monitor fired %d times over 100 iterations with CheckEvery=10, want 10", len(calls))
		}
		for i, it := range calls {
			if it != int64((i+1)*10) {
				t.Fatalf("call %d at iteration %d, want %d", i, it, (i+1)*10)
			}
		}
	})
}

// TestMonitorStop: a Stop directive interrupts the solve.
func TestMonitorStop(t *testing.T) {
	bothEncodings(t, func(t *testing.T, enc func(toy) Problem) {
		opts := Options{
			Seed:       2,
			CheckEvery: 5,
			Monitor: func(iter int64, cost int, cfg []int) Directive {
				return Directive{Stop: true}
			},
		}
		res, err := Solve(context.Background(), enc(stuckProblem{8}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted {
			t.Fatalf("Stop directive did not interrupt: %v", res)
		}
		if res.Iterations != 5 {
			t.Fatalf("stopped after %d iterations, want 5", res.Iterations)
		}
	})
}

// TestMonitorRestart: a Restart directive abandons the current run; with
// MaxRuns=2 the engine performs exactly two runs.
func TestMonitorRestart(t *testing.T) {
	bothEncodings(t, func(t *testing.T, enc func(toy) Problem) {
		opts := Options{
			Seed:          3,
			MaxIterations: 1000,
			MaxRuns:       2,
			CheckEvery:    10,
			Monitor: func(iter int64, cost int, cfg []int) Directive {
				return Directive{Restart: true}
			},
		}
		res, err := Solve(context.Background(), enc(stuckProblem{8}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved {
			t.Fatal("stuckProblem cannot be solved")
		}
		if res.Restarts != 1 {
			t.Fatalf("Restarts = %d, want 1 (two runs)", res.Restarts)
		}
		// Each run restarts at its first poll (iteration 10 of the run).
		if res.Iterations != 20 {
			t.Fatalf("Iterations = %d, want 20", res.Iterations)
		}
	})
}

// TestMonitorSetConfig: a SetConfig directive teleports the walker; the
// engine accepts a valid configuration and solves from it immediately.
func TestMonitorSetConfig(t *testing.T) {
	bothEncodings(t, func(t *testing.T, enc func(toy) Problem) {
		n := 12
		target := perm.Identity(n)
		injected := false
		opts := Options{
			Seed:       4,
			CheckEvery: 3,
			Monitor: func(iter int64, cost int, cfg []int) Directive {
				if injected {
					return Directive{}
				}
				injected = true
				return Directive{SetConfig: target}
			},
		}
		res, err := Solve(context.Background(), enc(sortProblem{n}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("not solved after teleporting to the solution: %v", res)
		}
		// The engine checks cost right after adoption: iterations stay at
		// the poll point.
		if res.Iterations > 3 {
			t.Fatalf("took %d iterations, want <= 3 (teleport at first poll)", res.Iterations)
		}
	})
}

// TestMonitorSetConfigInvalidIgnored: malformed configurations must be
// rejected without corrupting the run. What is malformed depends on the
// encoding: a repeated value is a finite-domain configuration, a value
// outside [0, n) is neither.
func TestMonitorSetConfigInvalidIgnored(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  func(toy) Problem
		bad  [][]int
	}{
		{"perm", asPerm, [][]int{
			{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, // duplicate
			{0, 1},                                // wrong length
			nil,                                   // nil is "no directive"
		}},
		{"fd", asFD, [][]int{
			{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}, // outside the domain
			{0, 1},
			nil,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			opts := Options{
				Seed:          5,
				MaxIterations: 200,
				MaxRuns:       1,
				CheckEvery:    10,
				Monitor: func(iter int64, cost int, cfg []int) Directive {
					d := Directive{}
					if i < len(tc.bad) {
						d.SetConfig = tc.bad[i]
						i++
					}
					if cost != (floorProblem{sortProblem{12}}).Cost(cfg) {
						t.Errorf("iteration %d: cost %d is not the cost of %v", iter, cost, cfg)
					}
					return d
				},
			}
			res, err := Solve(context.Background(), tc.enc(floorProblem{sortProblem{12}}), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solved {
				t.Fatal("floorProblem cannot be solved")
			}
			if res.Iterations != 200 {
				t.Fatalf("run did not complete its budget after invalid directives: %v", res)
			}
		})
	}
}
