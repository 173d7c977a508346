package main

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/doccmd"
	"repro/internal/problems"
)

// TestRejectedCombinations: flags that would be ignored, or that could
// only fail once the factory is built, are usage errors.
func TestRejectedCombinations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exchange"}, "-exchange requires -walkers > 1"},
		{[]string{"-walkers", "1", "-exchange"}, "-exchange requires -walkers > 1"},
		{[]string{"-virtual"}, "-virtual requires -walkers > 1"},
		{[]string{"-walkers", "0", "-virtual"}, "-virtual requires -walkers > 1"},
		// Retired with the portfolio and the alternative strategies
		// (BENCH_portfolio_vs_adaptive.json).
		{[]string{"-walkers", "2", "-portfolio", "adaptive:1"}, "flag provided but not defined: -portfolio"},
		{[]string{"-strategy", "metropolis"}, "flag provided but not defined: -strategy"},
		{[]string{"-walkers", "4", "-virtual", "-exchange"}, "-virtual and -exchange are mutually exclusive"},
		{[]string{"-problem", "costas", "12"}, `unexpected argument "12"`},
		{[]string{"-param", "slots"}, "want key=value"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range [][]string{
		{"-walkers", "4", "-virtual"},
		{"-walkers", "4", "-exchange"},
	} {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("parse %q: %v", args, err)
		}
	}
}

// TestRunResolvesOnce: a run resolves its spec once and takes every
// instance from that one factory: the one it searches on sequentially,
// or one per walker, the multi-walk solution being printed against an
// instance taken once the walkers have handed theirs back. It used to
// build a probe beside the factory, so a timetable was constructed and
// reduced twice, and then to take the printing instance before the
// walkers started, so a multi-walk run built one instance more than it
// had walkers. The factory here keeps its own free list, so what it
// counts does not depend on when a GC empties the spec's.
func TestRunResolvesOnce(t *testing.T) {
	defer func(r func(string, int, map[string]int) (core.Options, problems.Factory, error)) { resolve = r }(resolve)
	var (
		resolves int
		mu       sync.Mutex // multiwalk.Run calls the factory from its walkers' goroutines
		free     []core.Problem
		built    int // instances the spec's factory handed out
		late     int // instances taken since the last one handed back
	)
	resolve = func(name string, size int, params map[string]int) (core.Options, problems.Factory, error) {
		resolves++
		opts, factory, err := problems.Resolve(name, size, params)
		return opts, func(done ...core.Problem) (core.Problem, error) {
			mu.Lock()
			defer mu.Unlock()
			if len(done) > 0 {
				free, late = append(free, done...), 0
				return nil, nil
			}
			late++
			if k := len(free); k > 0 {
				p := free[k-1]
				free = free[:k-1]
				return p, nil
			}
			built++
			return factory.New()
		}, err
	}
	spec := []string{"-problem", "timetable", "-size", "20", "-param", "slots=6", "-param", "rooms=4", "-param", "teachers=4", "-seed", "3"}
	for _, tc := range []struct {
		args    []string
		walkers int
	}{
		{nil, 1},
		{[]string{"-walkers", "2", "-virtual"}, 2},
		{[]string{"-walkers", "3"}, 3},
	} {
		resolves, free, built, late = 0, nil, 0, 0
		var out strings.Builder
		if err := run(append(tc.args, spec...), &out, io.Discard); err != nil {
			t.Fatalf("run %q: %v\n%s", tc.args, err, out.String())
		}
		if resolves != 1 || built > tc.walkers {
			t.Errorf("run %q resolved %d times and built %d instances, want 1 and at most %d", tc.args, resolves, built, tc.walkers)
		}
		if tc.walkers > 1 && late != 1 {
			t.Errorf("run %q took %d instances after its walkers handed theirs back, want 1: the one its solution is printed against", tc.args, late)
		}
		if !strings.Contains(out.String(), "SOLVED") {
			t.Errorf("run %q printed no solution:\n%s", tc.args, out.String())
		}
	}
}

// TestDocCommandsParse parses every solve command line in README,
// DESIGN, CI and the verify notes against the real flags (see
// internal/doccmd).
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "../..", "solve", 8, func(args []string) error {
		_, err := parse(args, io.Discard)
		return err
	})
}
