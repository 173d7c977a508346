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
// Every encoding implements core.Problem; the ones with cheap
// incremental deltas also implement core.SwapExecutor, mirroring the
// Cost_If_Swap / Executed_Swap structure of the C code. Encodings that
// maintain cached state are NOT safe for concurrent use: the multi-walk
// engine constructs one instance per walker via the Factory type.
package problems

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// Factory returns an independent Problem instance: unused, and held by
// nobody else. Multi-walk execution requires one instance per walker
// because encodings cache incremental state.
type Factory func() (core.Problem, error)

// ErrBadParams marks a construction request with unknown or invalid
// problem parameters (the params map of finite-domain benchmarks).
// Callers match it with errors.Is; the service layer maps it onto its
// own typed bad-request error.
var ErrBadParams = errors.New("problems: invalid problem parameters")

// builder couples a constructor validating its size parameter with
// registry metadata.
type builder struct {
	name        string
	description string
	defaultSize int
	paperSize   int // instance size used in the paper's experiments
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
}

// Describe returns metadata for a registered benchmark name.
func Describe(name string) (Info, error) {
	b, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("problems: unknown benchmark %q (known: %v)", name, Names())
	}
	return Info{Name: b.name, Description: b.description, DefaultSize: b.defaultSize, PaperSize: b.paperSize}, nil
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
// error wrapping ErrBadParams.
func NewWithParams(name string, size int, params map[string]int) (core.Problem, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("problems: unknown benchmark %q (known: %v)", name, Names())
	}
	if size <= 0 {
		size = b.defaultSize
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
// named benchmark: NewTemplate's Factory, for callers that need nothing
// read off the template.
func NewFactory(name string, size int) (Factory, error) {
	return NewFactoryParams(name, size, nil)
}

// NewFactoryParams is the params-aware NewFactory.
func NewFactoryParams(name string, size int, params map[string]int) (Factory, error) {
	_, factory, err := NewTemplate(name, size, params)
	return factory, err
}

// NewTemplate builds the one instance a multi-walk job has to build,
// its template, and the Factory that hands out the job's instances.
// Size and params are validated by constructing the template, and a
// finite-domain model is reduced here, once: an error wrapping
// domain.ErrUnsatisfiable proves it has no solution before any walker
// exists. The template is returned for reading only (core.TunedOptions);
// instances come from the Factory:
//
//   - the first call returns the template itself — touched by nothing
//     but the reduction, so indistinguishable from a fresh reduced
//     instance;
//   - a later call returns template.Clone() when the encoding is a
//     core.Cloner (the model and its reduced domains are shared: no
//     construction, no reduction), and a fresh NewWithParams instance
//     otherwise (core.Solve reduces that one itself).
//
// The first caller may search on the template while later callers
// clone it because Clone reads nothing a search writes and the
// reduction — the only writer of the shared model — is finished before
// the Factory exists. Every call returns an instance nobody else
// holds, and the Factory is safe to call from concurrent goroutines
// (multiwalk.Run calls it from every walker's). A template lives and
// dies with its job; nothing is kept across calls of NewTemplate.
func NewTemplate(name string, size int, params map[string]int) (core.Problem, Factory, error) {
	template, err := NewWithParams(name, size, params)
	if err != nil {
		return nil, nil, err
	}
	if dr, ok := template.(core.DomainReducer); ok {
		if err := dr.ReduceDomains(); err != nil {
			return nil, nil, err
		}
	}
	cloner, _ := template.(core.Cloner)
	var handedOut atomic.Bool
	return template, func() (core.Problem, error) {
		if !handedOut.Swap(true) {
			return template, nil
		}
		if cloner != nil {
			return cloner.Clone(), nil
		}
		return NewWithParams(name, size, params)
	}, nil
}

// abs is the integer absolute value used throughout the encodings.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
