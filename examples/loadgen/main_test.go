package main

import (
	"bytes"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestAsyncJobsCostOneGetEach runs the in-process smoke with every job
// async: each must be awaited by long-poll, none dropped or failed, and —
// the mix's jobs finishing far inside the server's wait cap — with
// exactly one GET apiece.
func TestAsyncJobsCostOneGetEach(t *testing.T) {
	const jobs = 40
	var out bytes.Buffer
	if err := run([]string{"-inprocess", "-jobs", strconv.Itoa(jobs), "-async-every", "1", "-concurrency", "8"}, &out); err != nil {
		// A dropped or failed job is run's error.
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`(?m)^transport: (\d+) waited / (\d+) awaited \((\d+) GETs\)$`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no transport line in:\n%s", out.String())
	}
	if waited, awaited, gets := m[1], m[2], m[3]; waited != "0" || awaited != strconv.Itoa(jobs) || gets != awaited {
		t.Errorf("transport: %s waited / %s awaited (%s GETs), want 0 / %d (%d)", waited, awaited, gets, jobs, jobs)
	}
	terminal := 0
	for _, line := range regexp.MustCompile(`(?m)^outcome (\w+) +(\d+)$`).FindAllStringSubmatch(out.String(), -1) {
		n, _ := strconv.Atoi(line[2])
		if line[1] == "failed" && n > 0 {
			t.Errorf("%d jobs failed", n)
		}
		terminal += n
	}
	if terminal != jobs {
		t.Errorf("outcome lines account for %d of %d jobs", terminal, jobs)
	}
	if !strings.Contains(out.String(), "clean shutdown: scheduler drained") {
		t.Errorf("no clean shutdown in:\n%s", out.String())
	}
}

// TestStreamFlagIsGone: a script from before the progress stream was
// deleted fails at the flag, not by silently polling.
func TestStreamFlagIsGone(t *testing.T) {
	err := run([]string{"-inprocess", "-stream"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -stream") {
		t.Fatalf("run -stream = %v, want a flag-not-defined usage error", err)
	}
}
