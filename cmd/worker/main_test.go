package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/doccmd"
)

// TestRejectedFlags: a flag the worker would ignore is a usage error,
// reported before anything starts.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-advertise", "http://10.0.0.8:9101"}, "-advertise needs -coordinator"},
		{[]string{"-heartbeat", "500ms"}, "-heartbeat needs -coordinator"},
		{[]string{"-telemetry-interval", "5s"}, "-telemetry-interval needs -telemetry"},
		{[]string{"-addr", ":9101", "extra"}, `unexpected argument "extra"`},
		{[]string{"-board-sync", "20ms"}, "flag provided but not defined: -board-sync"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	args := []string{"-coordinator", "http://127.0.0.1:9120", "-advertise", "http://127.0.0.1:9121", "-heartbeat", "500ms", "-telemetry", "worker.ftdc", "-telemetry-interval", "5s"}
	if _, err := parse(args, io.Discard); err != nil {
		t.Errorf("parse %q: %v", args, err)
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

// TestDocCommandsParse parses every worker command line in README,
// DESIGN, CI and the verify notes against the real flags (see
// internal/doccmd).
func TestDocCommandsParse(t *testing.T) {
	doccmd.Check(t, "../..", "worker", 6, func(args []string) error {
		_, err := parse(args, io.Discard)
		return err
	})
}
