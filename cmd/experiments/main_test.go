package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/doccmd"
)

// TestUsageErrors: every way of asking for two things at once, or for
// something that is not there, fails at parsing — before any work.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"calibrate", "a.json", "predict", "b.json"}, `unexpected argument "predict"`},
		{[]string{"-exp", "fig1", "ftdc-decode", "x.ftdc"}, `unexpected argument "ftdc-decode"`},
		{[]string{"calibrate", "-platform", "ha8000", "a.json"}, "flag provided but not defined: -platform"},
		{[]string{"iter-rate", "-exp", "fig1", "x.json"}, "flag provided but not defined: -exp"},
		{[]string{"distrib", "-scale", "tiny"}, "flag provided but not defined: -scale"},
		{[]string{"-exp", "fig1,fgi3"}, `unknown experiment "fgi3"`},
		{[]string{"-exp", "fig1,"}, `unknown experiment ""`},
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"whatif", "-platform", "beowulf", "a.json"}, `unknown platform "beowulf"`},
		{[]string{"iter-rate"}, "missing FILE"},
		{[]string{"predict", "a.json", "b.json"}, `unexpected argument "b.json"`},
		{[]string{"bogus"}, `unknown subcommand "bogus"`},
		// The mode flags before subcommands, and the knobs that went.
		{[]string{"-bench-json", "x.json"}, "not defined: -bench-json"},
		{[]string{"-bench-tail", "x.json"}, "not defined: -bench-tail"},
		{[]string{"-ftdc-decode", "x.ftdc"}, "not defined: -ftdc-decode"},
		{[]string{"-calibrate", "cal.json"}, "flag provided but not defined: -calibrate"},
		{[]string{"-predict", "cal.json"}, "not defined: -predict"},
		{[]string{"-whatif", "cal.json"}, "not defined: -whatif"},
		{[]string{"-bench-predict", "x.json"}, "not defined: -bench-predict"},
		{[]string{"iter-rate", "-compare", "b.json", "-bench-relative", "x.json"}, "not defined: -bench-relative"},
		{[]string{"iter-rate", "-bench-threshold", "0.25", "x.json"}, "not defined: -bench-threshold"},
		{[]string{"-timeout", "1h"}, "not defined: -timeout"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestFileAroundFlags: a subcommand's FILE may stand before, between or
// after its flags.
func TestFileAroundFlags(t *testing.T) {
	for _, args := range [][]string{
		{"calibrate", "-scale", "tiny", "-seed", "11", "c.json"},
		{"calibrate", "-scale", "tiny", "c.json", "-seed", "11"},
		{"calibrate", "c.json", "-scale", "tiny", "-seed", "11"},
	} {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("parse %q: %v", args, err)
		}
	}
}

// TestDistrib runs the distrib subcommand end to end on a small
// sample: every section it promises is printed.
func TestDistrib(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"distrib", "-problem", "costas", "-size", "10", "-runs", "30"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"collecting 30 sequential solves of costas-10",
		"iters/s on this machine",
		"== distrib:", "costas-10  30",
		"histogram (iterations to solution):",
		"== speedup:", "256    ",
		"== ha8000: costas-10 speedup w.r.t. 32 cores",
		"log-log slope",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestDocCommandsParse parses every experiments command line in
// README, DESIGN, CI and the verify notes against the real subcommands
// and flags (see internal/doccmd). A line that goes on with "|| true"
// checks that the command rejects it, so there parsing must fail.
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "../..", "experiments", 10, func(args []string) error {
		_, err := parse(args, io.Discard)
		return err
	})
}
