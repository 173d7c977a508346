package dist

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// placed is one assignment as the placement table records it: the
// worker's join index, the walker range and the slots reserved for it.
type placed struct {
	worker, start, count, reserved int
}

// fleetRow is one hand-built registry row.
type fleetRow struct {
	state       workerState
	slots, busy int
}

// placementCoordinator is a coordinator over a registry built by hand:
// no HTTP, just the rows the planners read and reserve on.
func placementCoordinator(rows ...fleetRow) *Coordinator {
	c := &Coordinator{reg: newRegistry()}
	for i, r := range rows {
		w := &workerRef{index: i, base: fmt.Sprintf("w%d", i), slots: r.slots, busy: r.busy, state: r.state}
		c.reg.workers = append(c.reg.workers, w)
		c.reg.byURL[w.base] = w
	}
	return c
}

// TestPlacement pins where every planner puts walkers on fleets that mix
// healthy, suspect, dead and draining workers with varied busy counts:
// the exact assignments, the uncovered tails, the error, and every
// worker's reservations afterwards.
func TestPlacement(t *testing.T) {
	const (
		H = stateHealthy
		S = stateSuspect
		D = stateDead
		X = stateDraining
	)
	// Free slots: w0 3, w1 2 (suspect), w2 and w3 none to give (dead,
	// draining), w4 0, w5 2, w6 2 (suspect).
	mixed := []fleetRow{{H, 4, 1}, {S, 2, 0}, {D, 8, 0}, {X, 8, 0}, {H, 3, 3}, {H, 4, 2}, {S, 3, 1}}
	// Nothing dispatchable is free.
	full := []fleetRow{{H, 2, 2}, {D, 4, 0}, {X, 4, 0}, {S, 1, 1}}
	// Free slots only on a suspect worker.
	suspectOnly := []fleetRow{{S, 4, 0}, {H, 2, 2}, {D, 4, 0}}
	// Ties: w0 2 free, w1 and w2 4 free each, w3 draining.
	ties := []fleetRow{{H, 3, 1}, {H, 5, 1}, {H, 6, 2}, {X, 9, 0}}

	plan := func(mode string, k int) func(*Coordinator) ([]assignment, []lostRange, error) {
		return func(c *Coordinator) ([]assignment, []lostRange, error) {
			p, err := c.plan(mode, k)
			return p, nil, err
		}
	}
	recovery := func(mode string, lost ...lostRange) func(*Coordinator) ([]assignment, []lostRange, error) {
		return func(c *Coordinator) ([]assignment, []lostRange, error) {
			p, u := c.planRecovery(mode, lost)
			return p, u, nil
		}
	}
	backup := func(primary, start, count int) func(*Coordinator) ([]assignment, []lostRange, error) {
		return func(c *Coordinator) ([]assignment, []lostRange, error) {
			c.reg.mu.Lock()
			defer c.reg.mu.Unlock()
			if a, ok := mostFree(c.reg.workers, start, count, count, c.reg.workers[primary]); ok {
				return []assignment{a}, nil, nil
			}
			return nil, nil, nil
		}
	}

	for _, tc := range []struct {
		name      string
		fleet     []fleetRow
		call      func(*Coordinator) ([]assignment, []lostRange, error)
		want      []placed
		uncovered []lostRange
		err       error
		busy      []int
	}{
		{
			name: "plan/run/partial", fleet: mixed, call: plan(ModeRun, 4),
			want: []placed{{0, 0, 3, 3}, {1, 3, 1, 1}},
			busy: []int{4, 1, 0, 0, 3, 2, 1},
		},
		{
			name: "plan/run/exact", fleet: mixed, call: plan(ModeRun, 9),
			want: []placed{{0, 0, 3, 3}, {1, 3, 2, 2}, {5, 5, 2, 2}, {6, 7, 2, 2}},
			busy: []int{4, 2, 0, 0, 3, 4, 3},
		},
		{
			name: "plan/run/too-wide", fleet: mixed, call: plan(ModeRun, 10),
			err:  ErrNoCapacity,
			busy: []int{1, 0, 0, 0, 3, 2, 1},
		},
		{
			name: "plan/run/none-free", fleet: full, call: plan(ModeRun, 1),
			err:  ErrNoCapacity,
			busy: []int{2, 0, 0, 1},
		},
		{
			name: "plan/virtual/proportional", fleet: mixed, call: plan(ModeVirtual, 7),
			want: []placed{{0, 0, 3, 1}, {1, 3, 1, 1}, {5, 4, 2, 1}, {6, 6, 1, 1}},
			busy: []int{2, 1, 0, 0, 3, 3, 2},
		},
		{
			name: "plan/virtual/narrow", fleet: mixed, call: plan(ModeVirtual, 2),
			want: []placed{{0, 0, 1, 1}, {1, 1, 1, 1}},
			busy: []int{2, 1, 0, 0, 3, 2, 1},
		},
		{
			name: "plan/virtual/none-free", fleet: full, call: plan(ModeVirtual, 3),
			err:  ErrNoCapacity,
			busy: []int{2, 0, 0, 1},
		},
		{
			name: "recovery/run/split-and-tail", fleet: mixed,
			call:      recovery(ModeRun, lostRange{2, 4}, lostRange{10, 3}),
			want:      []placed{{0, 2, 3, 3}, {5, 5, 1, 1}, {5, 10, 1, 1}},
			uncovered: []lostRange{{11, 2}},
			busy:      []int{4, 0, 0, 0, 3, 4, 1},
		},
		{
			name: "recovery/run/suspect-only", fleet: suspectOnly,
			call:      recovery(ModeRun, lostRange{0, 2}),
			uncovered: []lostRange{{0, 2}},
			busy:      []int{0, 2, 0},
		},
		{
			name: "recovery/virtual/most-free", fleet: mixed,
			call: recovery(ModeVirtual, lostRange{0, 3}, lostRange{5, 2}, lostRange{9, 1},
				lostRange{12, 4}, lostRange{20, 2}, lostRange{30, 1}),
			want:      []placed{{0, 0, 3, 1}, {0, 5, 2, 1}, {5, 9, 1, 1}, {0, 12, 4, 1}, {5, 20, 2, 1}},
			uncovered: []lostRange{{30, 1}},
			busy:      []int{4, 0, 0, 0, 3, 4, 1},
		},
		{
			name: "recovery/virtual/suspect-only", fleet: suspectOnly,
			call:      recovery(ModeVirtual, lostRange{0, 2}, lostRange{4, 1}),
			uncovered: []lostRange{{0, 2}, {4, 1}},
			busy:      []int{0, 2, 0},
		},
		{
			name: "recovery/virtual/tie", fleet: ties,
			call: recovery(ModeVirtual, lostRange{0, 1}, lostRange{1, 1}),
			want: []placed{{1, 0, 1, 1}, {2, 1, 1, 1}},
			busy: []int{1, 2, 3, 0},
		},
		{
			name: "backup/healthy-not-primary", fleet: mixed, call: backup(0, 4, 2),
			want: []placed{{5, 4, 2, 2}},
			busy: []int{1, 0, 0, 0, 3, 4, 1},
		},
		{
			name: "backup/other-way", fleet: mixed, call: backup(5, 0, 2),
			want: []placed{{0, 0, 2, 2}},
			busy: []int{3, 0, 0, 0, 3, 2, 1},
		},
		{
			name: "backup/too-wide", fleet: mixed, call: backup(0, 4, 3),
			busy: []int{1, 0, 0, 0, 3, 2, 1},
		},
		{
			name: "backup/most-free", fleet: ties, call: backup(1, 6, 2),
			want: []placed{{2, 6, 2, 2}},
			busy: []int{1, 1, 4, 0},
		},
		{
			name: "backup/tie", fleet: ties, call: backup(3, 0, 4),
			want: []placed{{1, 0, 4, 4}},
			busy: []int{1, 5, 2, 0},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := placementCoordinator(tc.fleet...)
			plan, uncovered, err := tc.call(c)
			if !errors.Is(err, tc.err) {
				t.Fatalf("error %v, want %v", err, tc.err)
			}
			var got []placed
			for _, a := range plan {
				got = append(got, placed{a.worker.index, a.start, a.count, a.reserved})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("assignments %v, want %v", got, tc.want)
			}
			if !reflect.DeepEqual(uncovered, tc.uncovered) {
				t.Fatalf("uncovered %v, want %v", uncovered, tc.uncovered)
			}
			busy := make([]int, len(c.reg.workers))
			for i, w := range c.reg.workers {
				busy[i] = w.busy
			}
			if !reflect.DeepEqual(busy, tc.busy) {
				t.Fatalf("busy after %v, want %v", busy, tc.busy)
			}
		})
	}
}
