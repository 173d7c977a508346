// Package problems provides the CSP benchmark encodings used in the
// PPoPP 2012 parallel Adaptive Search study and in the original C
// library it builds on:
//
//   - all-interval  (CSPLib prob007)  — used in the paper's Figs. 1–2
//   - perfect-square (CSPLib prob009) — used in the paper's Figs. 1–2
//   - magic-square  (CSPLib prob019)  — used in the paper's Figs. 1–2
//   - costas         (Costas Array Problem) — the paper's Fig. 3
//
// plus the remaining benchmarks shipped with the C Adaptive Search
// distribution (queens, alpha, langford, partition), which round out the
// library for downstream users and appear in the extended experiments.
//
// Every encoding implements its encoding's whole contract,
// core.PermProblem or (timetable) core.FDProblem, mirroring the
// Cost_If_Swap / Executed_Swap structure of the C code. Encodings keep
// cached state, so they are NOT safe for concurrent use: the multi-walk
// engine takes one instance per walker from a Factory and hands it back
// when the walker is done. Resolve hands out every Factory, off a
// process-wide cache that builds each spec — (problem, size, params) —
// once: a finite-domain model is constructed and reduced on the spec's
// first resolve, and every instance after is a finished walker's, or a
// clone of the model when none is free (see Resolve).
package problems

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Factory is core.Factory: it hands out instances held by nobody else,
// one per walker, because encodings cache incremental state, and takes
// back the ones walkers are done with.
type Factory = core.Factory

// ErrBadParams marks a construction request with unknown or invalid
// problem parameters (the params map of finite-domain benchmarks).
// Callers match it with errors.Is; the service layer maps it onto its
// own typed bad-request error.
var ErrBadParams = errors.New("problems: invalid problem parameters")

// ErrTooLarge marks a construction request above its benchmark's
// MaxSize. It is refused before anything is allocated, so one request
// cannot make a server build an instance that exhausts its memory.
var ErrTooLarge = errors.New("problems: instance too large")

// builder couples a constructor validating its size parameter with
// registry metadata.
type builder struct {
	name        string
	description string
	defaultSize int
	paperSize   int // instance size used in the paper's experiments
	maxSize     int // largest size NewWithParams builds
	build       func(n int) (core.Problem, error)
	// buildParams, when non-nil, is the params-aware constructor used by
	// finite-domain benchmarks (build must then wrap it with nil
	// params). Benchmarks without it reject any non-empty params map.
	buildParams func(n int, params map[string]int) (core.Problem, error)
}

// registry holds all known benchmark encodings, keyed by name.
var registry = map[string]builder{}

func register(b builder) {
	if _, dup := registry[b.name]; dup {
		panic("problems: duplicate registration of " + b.name)
	}
	registry[b.name] = b
}

// Names returns the sorted list of registered benchmark names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Info describes a registered benchmark.
type Info struct {
	Name        string
	Description string
	// DefaultSize is the laptop-scale instance parameter used by the
	// experiment harness; PaperSize is the size the paper ran on its
	// clusters (see DESIGN.md §2 for the scaling substitution).
	DefaultSize int
	PaperSize   int
	// MaxSize is the largest size the benchmark builds: at it, and at
	// its parameters' caps, one instance is built and reduced within
	// 64 MiB (TestMaxSizeBudget).
	MaxSize int
}

// Describe returns metadata for a registered benchmark name.
func Describe(name string) (Info, error) {
	b, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("problems: unknown benchmark %q (known: %v)", name, Names())
	}
	return Info{Name: b.name, Description: b.description, DefaultSize: b.defaultSize, PaperSize: b.paperSize, MaxSize: b.maxSize}, nil
}

// New constructs a single instance of the named benchmark with the given
// size parameter. size <= 0 selects the benchmark's default size.
func New(name string, size int) (core.Problem, error) {
	return NewWithParams(name, size, nil)
}

// NewWithParams constructs a single instance of the named benchmark
// with the given size and additional problem parameters (the
// finite-domain benchmarks' knobs, e.g. timetable's slots/rooms/
// teachers). A nil or empty map selects the benchmark's defaults;
// benchmarks that take no parameters reject a non-empty map with an
// error wrapping ErrBadParams. A size above the benchmark's MaxSize is
// refused with an error wrapping ErrTooLarge.
func NewWithParams(name string, size int, params map[string]int) (core.Problem, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("problems: unknown benchmark %q (known: %v)", name, Names())
	}
	if size <= 0 {
		size = b.defaultSize
	}
	if size > b.maxSize {
		return nil, fmt.Errorf("%w: %s size %d exceeds %d", ErrTooLarge, name, size, b.maxSize)
	}
	if b.buildParams != nil {
		return b.buildParams(size, params)
	}
	if len(params) > 0 {
		return nil, fmt.Errorf("%w: benchmark %q takes no parameters", ErrBadParams, name)
	}
	return b.build(size)
}

// NewFactory returns a Factory producing independent instances of the
// named benchmark: Resolve's Factory, for callers that need nothing
// else it answers.
func NewFactory(name string, size int) (Factory, error) {
	return NewFactoryParams(name, size, nil)
}

// NewFactoryParams is the params-aware NewFactory.
func NewFactoryParams(name string, size int, params map[string]int) (Factory, error) {
	_, factory, err := Resolve(name, size, params)
	return factory, err
}

// abs is the integer absolute value used throughout the encodings.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
