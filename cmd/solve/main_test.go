package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/doccmd"
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

// TestDocCommandsParse parses every solve command line in README,
// DESIGN, CI and the verify notes against the real flags (see
// internal/doccmd).
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "../..", "solve", 8, func(args []string) error {
		_, err := parse(args, io.Discard)
		return err
	})
}
