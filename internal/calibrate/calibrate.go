// Package calibrate is the runtime-distribution calibration store
// behind adaptive parallelism: an append-only record of observed
// solve effort per (problem, size, params), fed from bench
// runs and from live job telemetry, and resolved on demand into a
// fitted runtime model (stats.FitBest) plus an iteration-rate
// estimate. The service's AutoSize admission mode and the
// capacity-planning CLI (experiments whatif/predict) both read
// predictions out of this store rather than re-measuring.
//
// Only *sequential* observations — bench collections and live jobs
// that ran with a single walker — feed the distribution fit: the
// winner iterations of a k-walker first-wins job are a draw of
// min-of-k, not of the sequential distribution, and folding them in
// would bias the fit optimistic. Multi-walker batches still
// contribute to rate calibration and provide measured-speedup
// observations for predicted-vs-measured comparison.
package calibrate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// SchemaVersion is the store's on-disk schema version. Load drops
// entries recorded under any other version (versioned eviction): a
// schema change invalidates old calibration rather than misreading it.
const SchemaVersion = 1

// maxDecodeBytes caps the serialized store size Decode accepts.
const maxDecodeBytes = 16 << 20

// Bounds on stored volume. Batches are append-only up to the cap;
// past it the oldest batches of the entry are dropped first.
const (
	maxBatchesPerEntry = 512
	maxObsPerBatch     = 100_000
	maxEntries         = 4096
)

// minFitSamples is the smallest sequential-sample count Resolve will
// fit a model to. Below it predictions would be dominated by noise and
// Resolve returns ErrInsufficient instead.
const minFitSamples = 8

// Typed errors. ErrBadStore marks undecodable or schema-violating
// persisted data; ErrInsufficient marks a key that exists (or not)
// but lacks the sequential observations a fit needs.
var (
	ErrBadStore     = errors.New("calibrate: bad calibration store")
	ErrInsufficient = errors.New("calibrate: insufficient calibration data")
)

// Key identifies one calibration population. Params is the canonical
// string encoding of the request's parameter map (see CanonicalParams)
// so that map ordering never splits a population.
type Key struct {
	Problem string `json:"problem"`
	Size    int    `json:"size"`
	Params  string `json:"params,omitempty"`
}

func (k Key) String() string {
	s := fmt.Sprintf("%s/%d", k.Problem, k.Size)
	if k.Params != "" {
		s += "?" + k.Params
	}
	return s
}

// CanonicalParams encodes a parameter map as "k=v,..." with sorted
// keys — the canonical Key.Params form.
func CanonicalParams(params map[string]int) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, params[k])
	}
	return b.String()
}

// Batch is one append-only calibration record: the per-run solve
// efforts observed by one bench collection or one live job.
type Batch struct {
	// Source names the feed ("bench", "live").
	Source string `json:"source"`
	// RecordedAt timestamps the batch for staleness eviction.
	RecordedAt time.Time `json:"recorded_at"`
	// Sequential marks the iteration counts as unbiased draws of the
	// sequential runtime distribution (bench runs; live jobs with one
	// walker). Only sequential batches feed the model fit.
	Sequential bool `json:"sequential,omitempty"`
	// Walkers is the walker count the observations ran under (1 for
	// sequential batches).
	Walkers int `json:"walkers"`
	// Iters are the observed solve efforts in iterations (winner
	// iterations for multi-walker jobs).
	Iters []float64 `json:"iters"`
	// ItersPerSec is the observed per-walker iteration rate, 0 if the
	// feed could not measure it.
	ItersPerSec float64 `json:"iters_per_sec,omitempty"`
}

func (b *Batch) validate() error {
	if b.Walkers < 1 {
		return fmt.Errorf("%w: batch walkers %d < 1", ErrBadStore, b.Walkers)
	}
	if len(b.Iters) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadStore)
	}
	if len(b.Iters) > maxObsPerBatch {
		return fmt.Errorf("%w: batch holds %d observations (cap %d)", ErrBadStore, len(b.Iters), maxObsPerBatch)
	}
	for _, x := range b.Iters {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("%w: invalid observation %v", ErrBadStore, x)
		}
	}
	if math.IsNaN(b.ItersPerSec) || math.IsInf(b.ItersPerSec, 0) || b.ItersPerSec < 0 {
		return fmt.Errorf("%w: invalid iteration rate %v", ErrBadStore, b.ItersPerSec)
	}
	if b.Sequential && b.Walkers != 1 {
		return fmt.Errorf("%w: sequential batch with %d walkers", ErrBadStore, b.Walkers)
	}
	return nil
}

// Entry is one key's batch history.
type Entry struct {
	Key     Key     `json:"key"`
	Batches []Batch `json:"batches"`
}

// Store is the in-memory calibration store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*Entry
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[Key]*Entry)}
}

// Record appends a batch under key. Invalid batches are rejected; once
// the entry is at its batch cap the oldest batch is evicted to make
// room (the store favors fresh evidence). Recording into a full store
// (max distinct keys) fails rather than evicting another population.
func (s *Store) Record(key Key, b Batch) error {
	if err := b.validate(); err != nil {
		return err
	}
	if key.Problem == "" {
		return fmt.Errorf("%w: key missing problem", ErrBadStore)
	}
	b.Iters = append([]float64(nil), b.Iters...)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		if len(s.entries) >= maxEntries {
			return fmt.Errorf("%w: store holds %d keys (cap)", ErrBadStore, maxEntries)
		}
		e = &Entry{Key: key}
		s.entries[key] = e
	}
	if len(e.Batches) >= maxBatchesPerEntry {
		e.Batches = e.Batches[1:]
	}
	e.Batches = append(e.Batches, b)
	return nil
}

// Keys returns the stored keys, sorted by String form.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]Key, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// EvictBefore drops batches recorded before cutoff (staleness
// eviction) and removes entries left empty. It returns the number of
// batches dropped.
func (s *Store) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for k, e := range s.entries {
		kept := e.Batches[:0]
		for _, b := range e.Batches {
			if b.RecordedAt.Before(cutoff) {
				dropped++
				continue
			}
			kept = append(kept, b)
		}
		e.Batches = kept
		if len(e.Batches) == 0 {
			delete(s.entries, k)
		}
	}
	return dropped
}

// Resolved is the prediction-ready view of one key: the pooled
// sequential sample, its fitted model, and the pooled iteration rate.
type Resolved struct {
	Key Key
	// Sample pools every sequential observation; Samples is its size.
	Sample  *stats.Sample
	Samples int
	// Fit is the best-family fit of the sequential sample.
	Fit stats.Fit
	// ItersPerSec is the observation-weighted mean iteration rate over
	// every batch that measured one (sequential or not), 0 if none did.
	ItersPerSec float64
}

// Resolve pools the key's sequential observations and fits the runtime
// model. It fails with ErrInsufficient when the key is unknown or has
// fewer than minFitSamples sequential observations.
func (s *Store) Resolve(key Key) (*Resolved, error) {
	s.mu.Lock()
	e := s.entries[key]
	var seq []float64
	var rateSum, rateWeight float64
	if e != nil {
		for _, b := range e.Batches {
			if b.Sequential {
				seq = append(seq, b.Iters...)
			}
			if b.ItersPerSec > 0 {
				w := float64(len(b.Iters))
				rateSum += b.ItersPerSec * w
				rateWeight += w
			}
		}
	}
	s.mu.Unlock()
	if len(seq) < minFitSamples {
		return nil, fmt.Errorf("%w: %s has %d sequential observations (need %d)",
			ErrInsufficient, key, len(seq), minFitSamples)
	}
	sample, err := stats.New(seq)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrInsufficient, key, err)
	}
	r := &Resolved{Key: key, Sample: sample, Samples: len(seq), Fit: stats.FitBest(sample)}
	if rateWeight > 0 {
		r.ItersPerSec = rateSum / rateWeight
	}
	return r, nil
}

// SpeedupObs is one measured multi-walk speedup observation: mean
// winner effort at Walkers versus the key's sequential mean.
type SpeedupObs struct {
	Walkers int     `json:"walkers"`
	Runs    int     `json:"runs"`
	Speedup float64 `json:"speedup"`
}

// ObservedSpeedups derives measured speedups from the key's
// multi-walker batches: for each walker count with recorded winner
// efforts, speedup = (sequential mean) / (mean winner effort at k).
// Returns observations sorted by walker count; empty (not an error)
// when the key has no multi-walker evidence. The sequential mean comes
// from the same pooling as Resolve, so predicted and measured curves
// share a baseline.
func (s *Store) ObservedSpeedups(key Key) ([]SpeedupObs, error) {
	r, err := s.Resolve(key)
	if err != nil {
		return nil, err
	}
	seqMean := r.Sample.Mean()
	if seqMean <= 0 {
		return nil, fmt.Errorf("%w: %s: zero sequential mean", ErrInsufficient, key)
	}
	s.mu.Lock()
	sums := map[int]float64{}
	counts := map[int]int{}
	if e := s.entries[key]; e != nil {
		for _, b := range e.Batches {
			if b.Sequential || b.Walkers < 2 {
				continue
			}
			for _, x := range b.Iters {
				sums[b.Walkers] += x
				counts[b.Walkers]++
			}
		}
	}
	s.mu.Unlock()
	obs := make([]SpeedupObs, 0, len(sums))
	for k, n := range counts {
		mean := sums[k] / float64(n)
		if mean <= 0 {
			continue
		}
		obs = append(obs, SpeedupObs{Walkers: k, Runs: n, Speedup: seqMean / mean})
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Walkers < obs[j].Walkers })
	return obs, nil
}

// persisted is the on-disk shape.
type persisted struct {
	SchemaVersion int     `json:"schema_version"`
	Entries       []Entry `json:"entries"`
}

// Encode serializes the store (stable entry order, indented, trailing
// newline — the artifact convention of the repo's other JSON outputs).
func (s *Store) Encode() ([]byte, error) {
	p := persisted{SchemaVersion: SchemaVersion}
	for _, k := range s.Keys() {
		s.mu.Lock()
		e := s.entries[k]
		cp := Entry{Key: e.Key, Batches: append([]Batch(nil), e.Batches...)}
		s.mu.Unlock()
		p.Entries = append(p.Entries, cp)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses and validates a persisted store. Oversized input,
// unknown schema versions, and malformed batches all fail with errors
// wrapping ErrBadStore; a valid but empty document yields an empty
// store.
func Decode(data []byte) (*Store, error) {
	if len(data) > maxDecodeBytes {
		return nil, fmt.Errorf("%w: %d bytes exceeds cap %d", ErrBadStore, len(data), maxDecodeBytes)
	}
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if p.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%w: schema version %d (want %d)", ErrBadStore, p.SchemaVersion, SchemaVersion)
	}
	if len(p.Entries) > maxEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds cap %d", ErrBadStore, len(p.Entries), maxEntries)
	}
	st := NewStore()
	for i := range p.Entries {
		e := &p.Entries[i]
		if len(e.Batches) > maxBatchesPerEntry {
			return nil, fmt.Errorf("%w: entry %s holds %d batches (cap %d)", ErrBadStore, e.Key, len(e.Batches), maxBatchesPerEntry)
		}
		for j := range e.Batches {
			if err := st.Record(e.Key, e.Batches[j]); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// Save writes the store atomically (temp file + rename in the target
// directory), so a crash mid-write never truncates the previous
// calibration.
func (s *Store) Save(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".calibration-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a store saved by Save. A missing file is not an error —
// it yields an empty store, so cold starts and warmed restarts share
// one code path.
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return NewStore(), nil
	}
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
