package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
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
		{[]string{"-portfolio", "adaptive:1"}, "-portfolio requires -walkers > 1"},
		{[]string{"-walkers", "4", "-portfolio", "adaptive:1", "-strategy", "metropolis"}, "mutually exclusive"},
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
		{"-walkers", "4", "-virtual", "-portfolio", "adaptive:2,metropolis:1"},
	} {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("parse %q: %v", args, err)
		}
	}
}

// docFiles are the documents whose command lines must keep parsing.
var docFiles = []string{"../../README.md", "../../DESIGN.md", "../../.github/workflows/ci.yml", "../../.claude/skills/verify/SKILL.md"}

// TestDocCommandsParse parses every solve command line in the docs and
// CI against the real flags: a path ending in solve (cmd/, ./cmd/, bin/,
// /tmp/) or solve right after a backtick, then its words up to a
// comment, pipe, redirect, separator or closing backtick, across
// backslash-continued lines. cmd/experiments checks its own command
// lines the same way.
func TestDocCommandsParse(t *testing.T) {
	cmd := regexp.MustCompile("(?:(?:^|[\\s(`])(?:\\./)?(?:cmd|bin|/tmp)/|`)solve\\b([^#|>&;`)\n]*)")
	found := 0
	for _, path := range docFiles {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(blob), " ")
		for _, line := range strings.Split(text, "\n") {
			for _, m := range cmd.FindAllStringSubmatchIndex(line, -1) {
				if strings.HasSuffix(strings.TrimSpace(line[:m[0]]), "-o") {
					continue // go build -o /tmp/solve names the binary, it does not run it
				}
				found++
				if _, err := parse(strings.Fields(line[m[2]:m[3]]), io.Discard); err != nil {
					t.Errorf("%s: %s: %v", path, strings.TrimSpace(line), err)
				}
			}
		}
	}
	if found < 8 {
		t.Fatalf("found only %d solve command lines in the docs; is the pattern stale?", found)
	}
}
