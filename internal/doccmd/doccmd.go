// Package doccmd finds the command lines that the repository's docs and
// CI give for one command, so that the command's tests can parse each
// of them against its real flags.
package doccmd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// files are the documents searched, relative to the module root. The
// committed BENCH_*.json artifacts at the root are searched too: each
// one's "note" is the command that regenerates it.
var files = []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// docLine is one command line found in a document.
type docLine struct {
	// Path is the document, Text the line (backslash continuations
	// joined).
	Path, Text string
	// Args are the words after the command name.
	Args []string
	// Rejected reports that the line goes on with "|| true": it checks
	// that the command refuses these arguments.
	Rejected bool
}

var (
	continuation = regexp.MustCompile(`\\\n\s*`)
	fdRedirect   = regexp.MustCompile(`\d>`)
)

// Check parses every command line of name found under root and fails
// t on each that parse rejects, or, for a line that expects a
// rejection, accepts. It also fails when fewer than min lines turn up:
// a stale pattern would find none and pass.
func Check(t testing.TB, root, name string, min int, parse func(args []string) error) {
	t.Helper()
	lines, err := find(root, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		err := parse(l.Args)
		if l.Rejected && err == nil {
			t.Errorf("%s: %s: parses, but the line expects a rejection", l.Path, l.Text)
		} else if !l.Rejected && err != nil {
			t.Errorf("%s: %s: %v", l.Path, l.Text, err)
		}
	}
	if len(lines) < min {
		t.Fatalf("found only %d %s command lines in the docs; is the pattern stale?", len(lines), name)
	}
}

// find returns every command line of name in files and the BENCH
// notes under root: a path ending in name (cmd/, ./cmd/, examples/,
// bin/, /tmp/) or name right after a backtick, then its words up to a
// comment, pipe, redirect, separator or closing backtick. `go build -o bin/NAME` names the
// binary and does not run it, so it is skipped. Comment lines are
// parsed too: prose there names a command without its path
// ("serve -fleet"), so that it does not read as a command line.
func find(root, name string) ([]docLine, error) {
	cmd := regexp.MustCompile("(?:(?:^|[\\s(`])(?:\\./)?(?:cmd|examples|bin|/tmp)/|`)" + regexp.QuoteMeta(name) + "\\b([^#|>&;`)\n]*)")
	notes, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	paths := slices.Clone(files)
	for _, note := range notes {
		paths = append(paths, filepath.Base(note))
	}
	var lines []docLine
	for _, path := range paths {
		blob, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			return nil, err
		}
		if filepath.Ext(path) == ".json" {
			var artifact struct {
				Note string `json:"note"`
			}
			if err := json.Unmarshal(blob, &artifact); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			blob = []byte(artifact.Note)
		}
		text := fdRedirect.ReplaceAllString(continuation.ReplaceAllString(string(blob), " "), ">")
		for _, line := range strings.Split(text, "\n") {
			for _, m := range cmd.FindAllStringSubmatchIndex(line, -1) {
				if strings.HasSuffix(strings.TrimSpace(line[:m[0]]), "-o") {
					continue
				}
				lines = append(lines, docLine{
					Path:     path,
					Text:     strings.TrimSpace(line),
					Args:     strings.Fields(line[m[2]:m[3]]),
					Rejected: strings.Contains(line[m[3]:], "|| true"),
				})
			}
		}
	}
	return lines, nil
}
