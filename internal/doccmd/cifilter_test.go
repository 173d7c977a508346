package doccmd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFiltersMatchFunctions: every alternative of a -run, -bench or
// -fuzz filter on a go test line of the CI workflow names at least one
// Test, Benchmark or Fuzz function in the packages that line tests. A
// renamed or deleted test otherwise drops out of its CI step in
// silence: the filter still matches the rest, and go test passes.
func TestCIFiltersMatchFunctions(t *testing.T) {
	const root = "../.."
	raw, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(raw), "\n") {
		_, rest, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		pkgs, filters := goTestArgs(shellWords(rest))
		if len(filters) == 0 {
			continue
		}
		funcs := map[string]bool{}
		for _, pkg := range pkgs {
			if err := collectFuncs(filepath.Join(root, pkg), funcs); err != nil {
				t.Fatal(err)
			}
		}
		for flag, filter := range filters {
			for _, alt := range alternatives(filter) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: go test %s: %s %q: %v", rest, flag, alt, err)
					continue
				}
				if !matchesAny(re, funcs, kinds[flag]) {
					t.Errorf("ci.yml: go test %s: %s alternative %q matches no %s function in %v", rest, flag, alt, strings.Join(kinds[flag], "/"), pkgs)
				}
				checked++
			}
		}
	}
	t.Logf("%d filter alternatives checked", checked)
	if checked < 20 {
		t.Fatalf("found only %d filter alternatives in ci.yml; is the parser stale?", checked)
	}
}

// kinds are the function prefixes each filter flag selects from.
var kinds = map[string][]string{
	"-run":   {"Test", "Example", "Fuzz"},
	"-bench": {"Benchmark"},
	"-fuzz":  {"Fuzz"},
}

// shellWords splits a command line into words the way sh would for the
// lines CI writes (single and double quotes, no escapes), up to the
// first unquoted pipe, separator, redirect or comment.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case strings.ContainsRune("|;&>#", r):
			if inWord {
				words = append(words, word.String())
			}
			return words
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// goTestArgs picks the package paths (CI writes them ./dir) and the
// -run, -bench and -fuzz values out of go test's arguments.
func goTestArgs(words []string) (pkgs []string, filters map[string]string) {
	filters = map[string]string{}
	for i := 0; i < len(words); i++ {
		w := words[i]
		if _, ok := kinds[w]; ok && i+1 < len(words) {
			filters[w] = words[i+1]
			i++
			continue
		}
		if strings.HasPrefix(w, "./") {
			pkgs = append(pkgs, w)
		}
	}
	return pkgs, filters
}

// alternatives splits a filter's top-level pattern (what precedes the
// first '/', which selects subtests) at its top-level '|'. "^$", which
// selects nothing on purpose, yields none.
func alternatives(filter string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range filter + "/" {
		switch {
		case r == '(':
			depth++
		case r == ')':
			depth--
		case depth == 0 && (r == '|' || r == '/'):
			if alt := filter[start:i]; alt != "^$" {
				alts = append(alts, alt)
			}
			start = i + 1
		}
		if depth == 0 && r == '/' {
			break
		}
	}
	return alts
}

// collectFuncs adds the names of the top-level functions declared in
// the test files of the package at dir (of every package under it, for
// a path ending in "/...").
func collectFuncs(dir string, funcs map[string]bool) error {
	base, recursive := strings.CutSuffix(dir, "/...")
	return filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != base && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
}

// matchesAny reports whether re matches a function name with one of
// the prefixes.
func matchesAny(re *regexp.Regexp, funcs map[string]bool, prefixes []string) bool {
	for name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
