package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/doccmd"
)

// TestRejectedFlags: a flag the chosen backend would ignore is a usage
// error, reported before anything starts.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-speculate"}, "-speculate configures the distributed backend"},
		{[]string{"-speculate-threshold", "3"}, "-speculate-threshold configures the distributed backend"},
		{[]string{"-recover-attempts", "3"}, "-recover-attempts configures the distributed backend"},
		{[]string{"-fleet-heartbeat", "1s"}, "-fleet-heartbeat configures the distributed backend"},
		{[]string{"-board-addr", "127.0.0.1:9190"}, "-board-addr configures the distributed backend"},
		{[]string{"-board-advertise", "http://10.0.0.1:9190"}, "-board-advertise configures the distributed backend"},
		{[]string{"-board-sync", "20ms"}, "-board-sync configures the distributed backend"},
		{[]string{"-fleet", "-slots", "4"}, "-slots sizes the in-process pool"},
		{[]string{"-workers", "http://127.0.0.1:9101", "-slots", "4"}, "-slots sizes the in-process pool"},
		{[]string{"-fleet", "-speculate-threshold", "3"}, "-speculate-threshold needs -speculate"},
		{[]string{"-telemetry-interval", "5s"}, "-telemetry-interval needs -telemetry"},
		{[]string{"-addr", ":8080", "extra"}, `unexpected argument "extra"`},
		{[]string{"-stream"}, "flag provided but not defined: -stream"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range [][]string{
		{"-slots", "4", "-telemetry", "serve.ftdc", "-telemetry-interval", "5s"},
		{"-fleet", "-speculate", "-speculate-threshold", "3", "-fleet-heartbeat", "500ms"},
		{"-workers", "http://127.0.0.1:9101", "-recover-attempts", "-1", "-board-sync", "20ms"},
	} {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("parse %q: %v", args, err)
		}
	}
}

// TestRunDrainsOnCancel: run serves until its context is cancelled, then
// drains and returns nil.
func TestRunDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-slots", "1"}, io.Discard, io.Discard) }()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run = %v, want a clean drain", err)
	}
}

// TestDocCommandsParse parses every serve command line in README,
// DESIGN, CI and the verify notes against the real flags (see
// internal/doccmd).
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "../..", "serve", 6, func(args []string) error {
		_, err := parse(args, io.Discard)
		return err
	})
}
