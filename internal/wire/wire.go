// Package wire is the benchmark ledger's reference RunSpec frame: a
// length-prefixed binary encoding of one shard run request, with its
// decoder. Nothing in the product sends or reads it — every hop speaks
// HTTP/JSON (DESIGN.md §11) — and it stays, layout frozen, only because
// benchmark/layers.go encodes it for the wire.runspec_* ledger lines and
// internal/dist's tests post one as the request an old coordinator would
// send. It is to be deleted with those ledger lines (ROADMAP item 7a).
// The package is stdlib-only and imports nothing from this repository.
//
// # Frame format
//
//	frame   := uvarint(length) byte(type) payload
//	length  := len(payload) + 1           (the type byte is counted)
//
// Varints are unsigned LEB128 (little-endian base-128, low 7 bits
// first — encoding/binary's format); signed fields use zigzag. Strings
// are uvarint length + UTF-8 bytes. Fixed-width fields (packed
// configuration values, float64 bits) are explicitly little-endian.
// Configurations — an engine spec's initial configuration — are packed
// as fixed-width little-endian values sized to the largest element (1, 2
// or 4 bytes), falling back to zigzag varints when a value is negative:
//
//	ints := byte(width) uvarint(count) values...   width ∈ {0,1,2,4}; 0 = zigzag varints
//
// Frames are capped at MaxFrame; every decode error is (or wraps) one
// of the typed errors, and decoders never panic on adversarial input
// (FuzzWireDecode pins this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// MaxFrame caps one frame (type byte + payload): it must hold one
// configuration of any protocol-legal instance (n up to 1<<20).
const MaxFrame = 16 << 20

// TypeRunSpec is the one frame type left: one shard run request (see
// RunSpec). 0x01-0x04 and 0x06-0x08 were the stream protocols' frames,
// retired with them; the numbers stay unassigned.
const TypeRunSpec byte = 0x05

// Structural caps applied at decode time, before any allocation.
const (
	maxString = 4096
	maxElems  = 1 << 20
	maxSpecs  = 4096
	maxParams = 256
)

// Typed decode errors.
var (
	// ErrFrameTooBig reports a frame length above MaxFrame (or a
	// message that would encode above it).
	ErrFrameTooBig = errors.New("wire: frame exceeds size cap")
	// ErrTruncated reports input that ended mid-frame or mid-field.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMalformed reports structurally invalid bytes: bad varints,
	// out-of-cap strings or slices, unknown layout modes.
	ErrMalformed = errors.New("wire: malformed payload")
)

// RunSpec mirrors the dist run request as one binary frame: run the
// global walkers [Start, Start+Count) of a TotalWalkers-walker job.
// No product code sends it — shard dispatch is JSON (dist.RunRequest) —
// and it stays, fields and layout frozen, only because benchmark/
// encodes it for the wire.runspec_* ledger lines; it goes, or comes back
// into use, with the next benchmark-archetype PR.
type RunSpec struct {
	ID           string
	Mode         string
	Problem      string
	Size         int64
	Seed         uint64
	TotalWalkers int64
	Start        int64
	Count        int64
	Engine       EngineSpec
	Portfolio    []PortfolioSpec
	DeadlineMS   int64
	Exchange     ExchangeSpec
	Board        string
	BoardStream  string
	BoardJob     string
	// Params carries benchmark-specific problem parameters (the
	// finite-domain benchmarks' knobs). Encoded sorted by key so equal
	// specs produce identical bytes.
	Params map[string]int64
	// ProgressURL/ProgressStream/ProgressMS negotiate per-shard progress
	// reporting (the straggler detector's feed): the HTTP fallback
	// endpoint, the coordinator's stream hub address, and the report
	// period in milliseconds. All empty/zero when the coordinator does
	// not speculate.
	ProgressURL    string
	ProgressStream string
	ProgressMS     int64
}

// EngineSpec is the binary form of the dist engine spec.
type EngineSpec struct {
	MaxIterations    int64
	MaxRuns          int64
	FreezeLocMin     int64
	FreezeSwap       int64
	ResetLimit       int64
	ResetFraction    float64
	ProbSelectLocMin float64
	Strategy         string
	FirstBest        bool
	Exhaustive       bool
	CheckEvery       int64
	InitialConfig    []int
}

// PortfolioSpec is the binary form of one portfolio entry.
type PortfolioSpec struct {
	Weight int64
	Engine EngineSpec
}

// ExchangeSpec is the binary form of the dist exchange spec.
type ExchangeSpec struct {
	Enabled      bool
	Period       int64
	AdoptFactor  float64
	PerturbSwaps int64
	SyncMS       int64
}

// ---------------------------------------------------------------------
// Append-style primitives (encode side).

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendInts packs an int slice as fixed-width little-endian values
// sized to the largest element, or zigzag varints when any value is
// negative (or absurdly large).
func appendInts(dst []byte, v []int) []byte {
	width := byte(1)
	for _, x := range v {
		if x < 0 || uint64(x) > math.MaxUint32 {
			width = 0
			break
		}
		switch {
		case x > math.MaxUint16 && width < 4:
			width = 4
		case x > math.MaxUint8 && width < 2:
			width = 2
		}
	}
	dst = append(dst, width)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	switch width {
	case 0:
		for _, x := range v {
			dst = binary.AppendVarint(dst, int64(x))
		}
	case 1:
		for _, x := range v {
			dst = append(dst, byte(x))
		}
	case 2:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(x))
		}
	default:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	}
	return dst
}

// ---------------------------------------------------------------------
// Cursor-style decoder. Every accessor records the first failure and
// returns zero values afterwards, so message decoders read linearly
// and check d.err once.

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: uvarint overflow", ErrMalformed))
		}
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrMalformed))
		}
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bool out of range", ErrMalformed))
		return false
	}
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return f
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.fail(fmt.Errorf("%w: string of %d bytes exceeds %d", ErrMalformed, n, maxString))
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) ints() []int {
	width := d.byte()
	count := d.uvarint()
	if d.err != nil {
		return nil
	}
	if count > maxElems {
		d.fail(fmt.Errorf("%w: %d values exceed %d", ErrMalformed, count, maxElems))
		return nil
	}
	// Every value occupies at least one byte in every mode, so a count
	// above the remaining bytes is malformed — checked before the
	// allocation, keeping adversarial counts cheap.
	if count > uint64(len(d.buf)) {
		d.fail(ErrTruncated)
		return nil
	}
	if count == 0 {
		return nil
	}
	out := make([]int, count)
	switch width {
	case 0:
		for i := range out {
			out[i] = int(d.varint())
		}
	case 1:
		for i := range out {
			out[i] = int(d.byte())
		}
	case 2:
		if uint64(len(d.buf)) < 2*count {
			d.fail(ErrTruncated)
			return nil
		}
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint16(d.buf[2*i:]))
		}
		d.buf = d.buf[2*count:]
	case 4:
		if uint64(len(d.buf)) < 4*count {
			d.fail(ErrTruncated)
			return nil
		}
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint32(d.buf[4*i:]))
		}
		d.buf = d.buf[4*count:]
	default:
		d.fail(fmt.Errorf("%w: unknown int width %d", ErrMalformed, width))
		return nil
	}
	if d.err != nil {
		return nil
	}
	return out
}

// finish asserts the payload was consumed exactly.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf))
	}
	return nil
}

// ---------------------------------------------------------------------
// Message payloads. AppendX produces the payload only (no frame
// header); DecodeX parses exactly one payload.

func appendEngineSpec(dst []byte, e *EngineSpec) []byte {
	dst = binary.AppendVarint(dst, e.MaxIterations)
	dst = binary.AppendVarint(dst, e.MaxRuns)
	dst = binary.AppendVarint(dst, e.FreezeLocMin)
	dst = binary.AppendVarint(dst, e.FreezeSwap)
	dst = binary.AppendVarint(dst, e.ResetLimit)
	dst = appendFloat(dst, e.ResetFraction)
	dst = appendFloat(dst, e.ProbSelectLocMin)
	dst = appendString(dst, e.Strategy)
	dst = appendBool(dst, e.FirstBest)
	dst = appendBool(dst, e.Exhaustive)
	dst = binary.AppendVarint(dst, e.CheckEvery)
	return appendInts(dst, e.InitialConfig)
}

func (d *decoder) engineSpec() EngineSpec {
	return EngineSpec{
		MaxIterations:    d.varint(),
		MaxRuns:          d.varint(),
		FreezeLocMin:     d.varint(),
		FreezeSwap:       d.varint(),
		ResetLimit:       d.varint(),
		ResetFraction:    d.float(),
		ProbSelectLocMin: d.float(),
		Strategy:         d.string(),
		FirstBest:        d.bool(),
		Exhaustive:       d.bool(),
		CheckEvery:       d.varint(),
		InitialConfig:    d.ints(),
	}
}

// AppendRunSpec appends a RunSpec payload.
func AppendRunSpec(dst []byte, r *RunSpec) []byte {
	dst = appendString(dst, r.ID)
	dst = appendString(dst, r.Mode)
	dst = appendString(dst, r.Problem)
	dst = binary.AppendVarint(dst, r.Size)
	dst = binary.AppendUvarint(dst, r.Seed)
	dst = binary.AppendVarint(dst, r.TotalWalkers)
	dst = binary.AppendVarint(dst, r.Start)
	dst = binary.AppendVarint(dst, r.Count)
	dst = appendEngineSpec(dst, &r.Engine)
	dst = binary.AppendUvarint(dst, uint64(len(r.Portfolio)))
	for i := range r.Portfolio {
		dst = binary.AppendVarint(dst, r.Portfolio[i].Weight)
		dst = appendEngineSpec(dst, &r.Portfolio[i].Engine)
	}
	dst = binary.AppendVarint(dst, r.DeadlineMS)
	dst = appendBool(dst, r.Exchange.Enabled)
	dst = binary.AppendVarint(dst, r.Exchange.Period)
	dst = appendFloat(dst, r.Exchange.AdoptFactor)
	dst = binary.AppendVarint(dst, r.Exchange.PerturbSwaps)
	dst = binary.AppendVarint(dst, r.Exchange.SyncMS)
	dst = appendString(dst, r.Board)
	dst = appendString(dst, r.BoardStream)
	dst = appendString(dst, r.BoardJob)
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = binary.AppendVarint(dst, r.Params[k])
	}
	dst = appendString(dst, r.ProgressURL)
	dst = appendString(dst, r.ProgressStream)
	return binary.AppendVarint(dst, r.ProgressMS)
}

// DecodeRunSpec parses a RunSpec payload.
func DecodeRunSpec(p []byte) (RunSpec, error) {
	d := decoder{buf: p}
	r := RunSpec{
		ID:           d.string(),
		Mode:         d.string(),
		Problem:      d.string(),
		Size:         d.varint(),
		Seed:         d.uvarint(),
		TotalWalkers: d.varint(),
		Start:        d.varint(),
		Count:        d.varint(),
		Engine:       d.engineSpec(),
	}
	n := d.uvarint()
	if n > maxSpecs {
		d.fail(fmt.Errorf("%w: portfolio of %d entries exceeds %d", ErrMalformed, n, maxSpecs))
	}
	if d.err == nil {
		for i := uint64(0); i < n && d.err == nil; i++ {
			r.Portfolio = append(r.Portfolio, PortfolioSpec{
				Weight: d.varint(),
				Engine: d.engineSpec(),
			})
		}
	}
	r.DeadlineMS = d.varint()
	r.Exchange = ExchangeSpec{
		Enabled:      d.bool(),
		Period:       d.varint(),
		AdoptFactor:  d.float(),
		PerturbSwaps: d.varint(),
		SyncMS:       d.varint(),
	}
	r.Board = d.string()
	r.BoardStream = d.string()
	r.BoardJob = d.string()
	pn := d.uvarint()
	if pn > maxParams {
		d.fail(fmt.Errorf("%w: %d problem parameters exceed %d", ErrMalformed, pn, maxParams))
	}
	if d.err == nil && pn > 0 {
		r.Params = make(map[string]int64, pn)
		for i := uint64(0); i < pn && d.err == nil; i++ {
			k := d.string()
			r.Params[k] = d.varint()
		}
	}
	r.ProgressURL = d.string()
	r.ProgressStream = d.string()
	r.ProgressMS = d.varint()
	return r, d.finish()
}

// ---------------------------------------------------------------------
// Framing.

// Encoder frames messages with a reusable scratch buffer: steady-state
// encodes allocate nothing once the scratch has grown to the working
// set. An Encoder is not safe for concurrent use.
type Encoder struct {
	scratch []byte
}

// frame appends uvarint(len(scratch)+1), the type byte and the scratch
// payload to dst.
func (e *Encoder) frame(dst []byte, typ byte) ([]byte, error) {
	if len(e.scratch)+1 > MaxFrame {
		return dst, ErrFrameTooBig
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.scratch)+1))
	dst = append(dst, typ)
	return append(dst, e.scratch...), nil
}

// RunSpecFrame appends a framed RunSpec to dst.
func (e *Encoder) RunSpecFrame(dst []byte, r *RunSpec) ([]byte, error) {
	e.scratch = AppendRunSpec(e.scratch[:0], r)
	return e.frame(dst, TypeRunSpec)
}

// DecodeFrame splits one frame off data, returning its type, payload
// and the remaining bytes. io.ErrUnexpectedEOF-style partial input is
// ErrTruncated; a clean empty input is reported as (0, nil, nil, nil)
// rest with zero length — callers detect end-of-input by len(data).
func DecodeFrame(data []byte) (typ byte, payload, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, nil
	}
	n, w := binary.Uvarint(data)
	if w <= 0 {
		if w == 0 {
			return 0, nil, nil, ErrTruncated
		}
		return 0, nil, nil, fmt.Errorf("%w: frame length overflow", ErrMalformed)
	}
	if n == 0 {
		return 0, nil, nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	if n > MaxFrame {
		return 0, nil, nil, ErrFrameTooBig
	}
	data = data[w:]
	if uint64(len(data)) < n {
		return 0, nil, nil, ErrTruncated
	}
	return data[0], data[1:n], data[n:], nil
}
