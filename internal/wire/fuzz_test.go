package wire

import (
	"errors"
	"testing"
)

// FuzzWireDecode hammers the frame splitter and the RunSpec decoder
// with arbitrary bytes. The contract it pins: decoders never panic,
// never allocate past the structural caps, and every failure is (or
// wraps) one of the typed errors — ErrTruncated, ErrMalformed,
// ErrFrameTooBig.
func FuzzWireDecode(f *testing.F) {
	var e Encoder
	seed := [][]byte{
		{},
		{0x01},
		{0xff, 0xff, 0xff, 0xff, 0x7f},
		// A frame of a retired type (0x03, a stream subscribe): split off
		// and skipped, never decoded as a RunSpec.
		{0x04, 0x03, 0x02, 'j', '1'},
	}
	for _, spec := range []RunSpec{
		{ID: "r", Mode: "run", Problem: "queens", TotalWalkers: 1, Count: 1},
		{ID: "r-s1", Mode: "virtual", Problem: "timetable", Size: 20, Seed: 9, TotalWalkers: 4, Start: 2, Count: 2,
			Engine:    EngineSpec{MaxIterations: 1000, ResetFraction: 0.25, Strategy: "adaptive", InitialConfig: []int{300, 0, 70000}},
			Portfolio: []PortfolioSpec{{Weight: 2, Engine: EngineSpec{Strategy: "metropolis", InitialConfig: []int{-1, 2}}}},
			Params:    map[string]int64{"slots": 6, "rooms": 4}},
		{ID: "x", Mode: "run", Problem: "costas", TotalWalkers: 2, Count: 2, DeadlineMS: 5000,
			Exchange: ExchangeSpec{Enabled: true, Period: 64, AdoptFactor: 1.5, PerturbSwaps: 2, SyncMS: 50},
			Board:    "http://127.0.0.1:1/v1/runs/x/board", BoardJob: "x", ProgressURL: "http://127.0.0.1:1/p", ProgressMS: 250},
	} {
		b, err := e.RunSpecFrame(nil, &spec)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(seed, b)
	}
	for _, s := range seed {
		f.Add(s)
	}

	typed := func(t *testing.T, what string, err error) {
		if err == nil {
			return
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooBig) {
			t.Errorf("%s: untyped error %v", what, err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the input as a frame sequence, decoding each RunSpec
		// payload and skipping every other type.
		rest := data
		for len(rest) > 0 {
			typ, payload, next, err := DecodeFrame(rest)
			typed(t, "DecodeFrame", err)
			if err != nil {
				break
			}
			if typ == TypeRunSpec {
				spec, err := DecodeRunSpec(payload)
				typed(t, "payload decode", err)
				if err == nil {
					// What the decoder accepts, the encoder must be able
					// to say back to it.
					if _, err := DecodeRunSpec(AppendRunSpec(nil, &spec)); err != nil {
						t.Errorf("re-decoding an accepted spec: %v", err)
					}
				}
			}
			rest = next
		}

		// The raw input as a payload, independent of framing.
		_, err := DecodeRunSpec(data)
		typed(t, "DecodeRunSpec", err)
	})
}
