package problems

import (
	"maps"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
)

// The spec cache's bounds. A full cache drops entries to take a new
// one; a model over the byte bound by itself is never kept.
const (
	specCacheEntries = 256
	specCacheBytes   = 64 << 20 // of shared model, by core.Cloner.ModelBytes
)

// specs is the process's spec cache (see Resolve).
var specs = &specCache{maxEntries: specCacheEntries, maxBytes: specCacheBytes}

// Resolve returns the tuned engine options of the spec (name, size,
// params) and the Factory of its instances, and refuses a spec that
// does not build — an error wrapping ErrBadParams or ErrTooLarge — or
// whose reduction proves it unsatisfiable (domain.ErrUnsatisfiable).
// size <= 0 selects the benchmark's default size.
//
// A spec is built once per process, not once per call: the first
// resolve constructs its model, reduces it when it is finite-domain and
// reads the tuned options off it, and every later resolve of the spec —
// whatever order its params are given in — answers from a cache that
// holds at most 256 specs and 64 MiB of model. A refusal is never
// cached, so it is rebuilt, and refused, on every call; a full cache
// drops the entries map iteration meets first until the new one fits.
//
// The Factory is safe to call from concurrent goroutines (multiwalk.Run
// calls it from every walker's), and every New returns an instance
// nobody else holds: one a walker of the spec recycled, off the spec's
// free list, or, when that is empty,
//
//   - for a core.Cloner (timetable) a Clone() of the cached reduced
//     model: no construction, no reduction. The model itself is never
//     handed out, so no search ever writes it, and Clone reads nothing
//     else;
//   - otherwise a fresh NewWithParams instance (core.Solve reduces that
//     one itself, when it is finite-domain). The instance the first
//     resolve built to read the tuned options is the free list's first.
//
// The free list is a sync.Pool, which the GC empties, and has no bound
// of its own: the cache's bounds count models only, so an idle instance
// stays on the heap until two GC cycles pass (DESIGN §7). No instance
// can be told from a fresh construction plus reduction by any search,
// since Cost rebuilds all the state a search reads (core.Problem), so
// neither caching the model nor recycling instances moves a trace: the
// cache holds models, options and idle instances, never a search's
// result.
func Resolve(name string, size int, params map[string]int) (core.Options, Factory, error) {
	return specs.resolve(name, size, params)
}

// specCache maps a spec's key (specKey) to what resolving it yields.
type specCache struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	entries map[string]*specEntry
	held    int64 // ModelBytes of the entries' models
}

// specEntry is one resolved spec.
type specEntry struct {
	tuned   core.Options
	factory Factory     // e.instance
	model   core.Cloner // what a miss clones; nil when a miss builds afresh
	bytes   int64       // model's ModelBytes
	free    sync.Pool   // instances walkers recycled

	// What a miss builds when there is no model.
	name   string
	size   int
	params map[string]int
}

// instance is the spec's Factory: New takes a recycled instance off the
// free list and, on a miss, clones the model or builds afresh; Recycle
// puts instances on the free list.
func (e *specEntry) instance(done ...core.Problem) (core.Problem, error) {
	if len(done) > 0 {
		for _, p := range done {
			e.free.Put(p)
		}
		return nil, nil
	}
	if p, ok := e.free.Get().(core.Problem); ok {
		return p, nil
	}
	if e.model != nil {
		return e.model.Clone(), nil
	}
	return NewWithParams(e.name, e.size, e.params)
}

func (c *specCache) resolve(name string, size int, params map[string]int) (core.Options, Factory, error) {
	if b, ok := registry[name]; ok && size <= 0 {
		size = b.defaultSize
	}
	var buf [64]byte
	key := specKey(buf[:0], name, size, params)
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	c.mu.Unlock()
	if !ok {
		var err error
		if e, err = buildSpec(name, size, params); err != nil {
			return core.Options{}, nil, err
		}
		e = c.put(string(key), e)
	}
	return e.tuned, e.factory, nil
}

// put keeps e under key unless its model alone is over the byte bound,
// and returns the entry the spec resolves to: e, or the one a
// concurrent resolve of the same spec kept first.
func (c *specCache) put(key string, e *specEntry) *specEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if kept, ok := c.entries[key]; ok {
		return kept
	}
	if e.bytes > c.maxBytes {
		return e
	}
	for k, old := range c.entries {
		if len(c.entries) < c.maxEntries && c.held+e.bytes <= c.maxBytes {
			break
		}
		delete(c.entries, k)
		c.held -= old.bytes
	}
	if c.entries == nil {
		c.entries = make(map[string]*specEntry)
	}
	c.entries[key] = e
	c.held += e.bytes
	return e
}

// buildSpec constructs the spec's model, reduces it and reads its tuned
// options: the one construction and reduction a spec costs a process.
// Without a model to keep, the instance built goes on the free list, so
// the spec's first walker searches on it instead of building another.
func buildSpec(name string, size int, params map[string]int) (*specEntry, error) {
	p, err := NewWithParams(name, size, params)
	if err != nil {
		return nil, err
	}
	if dr, ok := p.(core.DomainReducer); ok {
		if err := dr.ReduceDomains(); err != nil {
			return nil, err
		}
	}
	e := &specEntry{tuned: core.TunedOptions(p)}
	e.factory = e.instance
	if model, ok := p.(core.Cloner); ok {
		e.model, e.bytes = model, model.ModelBytes()
		return e, nil
	}
	// The caller's map may change; the entry outlives the call.
	e.name, e.size, e.params = name, size, maps.Clone(params)
	e.free.Put(p)
	return e, nil
}

// specKey appends the spec's cache key to dst: the problem, the size
// and the params in key order. Every string is prefixed with its
// length, so no two specs share a key whatever their params' names
// hold.
func specKey(dst []byte, name string, size int, params map[string]int) []byte {
	dst = appendKeyString(dst, name)
	dst = strconv.AppendInt(dst, int64(size), 10)
	var stack [4]string
	names := stack[:0]
	for k := range params {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		dst = append(dst, ',')
		dst = appendKeyString(dst, k)
		dst = strconv.AppendInt(dst, int64(params[k]), 10)
	}
	return dst
}

func appendKeyString(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}
