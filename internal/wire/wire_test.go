package wire

import (
	"errors"
	"reflect"
	"testing"
)

func frameOf(t *testing.T, build func(*Encoder, []byte) ([]byte, error)) []byte {
	t.Helper()
	var e Encoder
	out, err := build(&e, nil)
	if err != nil {
		t.Fatalf("encoding frame: %v", err)
	}
	return out
}

func TestRunSpecRoundTrip(t *testing.T) {
	in := RunSpec{
		ID: "job000009-s1", Mode: "run", Problem: "magic-square", Size: 14,
		Seed: 20260729, TotalWalkers: 3, Start: 1, Count: 2,
		Engine: EngineSpec{
			MaxIterations: 300000, MaxRuns: 1, FreezeLocMin: 2, FreezeSwap: 3,
			ResetLimit: 4, ResetFraction: 0.25, ProbSelectLocMin: 0.5,
			Strategy: "adaptive", FirstBest: true, CheckEvery: 64,
			InitialConfig: []int{1, 0, 2},
		},
		Portfolio: []PortfolioSpec{
			{Weight: 1, Engine: EngineSpec{Strategy: "adaptive"}},
			{Weight: 2, Engine: EngineSpec{Strategy: "random-walk", Exhaustive: true}},
		},
		DeadlineMS:     5000,
		Exchange:       ExchangeSpec{Enabled: true, Period: 64, AdoptFactor: 1.0, PerturbSwaps: 2, SyncMS: 2},
		Board:          "http://127.0.0.1:1234/v1/runs/job000009/board",
		BoardStream:    "127.0.0.1:5678",
		BoardJob:       "job000009",
		ProgressURL:    "http://127.0.0.1:1234/v1/runs/job000009-s1/progress",
		ProgressStream: "127.0.0.1:5678",
		ProgressMS:     250,
	}
	buf := frameOf(t, func(e *Encoder, dst []byte) ([]byte, error) { return e.RunSpecFrame(dst, &in) })
	typ, payload, _, err := DecodeFrame(buf)
	if err != nil || typ != TypeRunSpec {
		t.Fatalf("DecodeFrame: typ=%#x err=%v", typ, err)
	}
	out, err := DecodeRunSpec(payload)
	if err != nil {
		t.Fatalf("DecodeRunSpec: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeErrorsAreTyped(t *testing.T) {
	valid := frameOf(t, func(e *Encoder, dst []byte) ([]byte, error) {
		return e.RunSpecFrame(dst, &RunSpec{ID: "j", Mode: "run", Problem: "queens", Size: 8, TotalWalkers: 1, Count: 1,
			Engine: EngineSpec{Strategy: "adaptive", InitialConfig: []int{1, 0, 2}}})
	})

	// Truncation at every prefix must yield ErrTruncated (or parse a
	// strictly shorter frame — impossible here, there is only one).
	for cut := 1; cut < len(valid); cut++ {
		_, _, _, err := DecodeFrame(valid[:cut])
		if err == nil {
			// The length prefix itself may be complete while the payload
			// is short — DecodeFrame reports that as ErrTruncated too, so
			// reaching here means the cut fell inside the varint and
			// still parsed. Not possible for this frame size.
			t.Fatalf("cut=%d: no error", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) {
			t.Errorf("cut=%d: error %v is neither ErrTruncated nor ErrMalformed", cut, err)
		}
	}

	// Oversized length prefix.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized frame: got %v, want ErrFrameTooBig", err)
	}

	// Declared string longer than the payload.
	typ, payload, _, _ := DecodeFrame(valid)
	if typ != TypeRunSpec {
		t.Fatalf("typ=%#x", typ)
	}
	corrupt := append([]byte{0xff, 0x7f}, payload[1:]...)
	if _, err := DecodeRunSpec(corrupt); !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTruncated) {
		t.Errorf("corrupt string length: got %v", err)
	}

	// A payload cut anywhere is typed too.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeRunSpec(payload[:cut]); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) {
			t.Errorf("payload cut=%d: got %v", cut, err)
		}
	}

	// Trailing garbage after a complete message.
	if _, err := DecodeRunSpec(append(append([]byte(nil), payload...), 0xAA)); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing bytes: got %v, want ErrMalformed", err)
	}

	// Encoder must refuse messages that would exceed the frame cap.
	var e Encoder
	if _, err := e.RunSpecFrame(nil, &RunSpec{Engine: EngineSpec{InitialConfig: make([]int, MaxFrame)}}); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized encode: got %v, want ErrFrameTooBig", err)
	}
}

// TestEncoderReuseIsStable pins that a reused Encoder produces
// identical bytes across calls (the zero-alloc fast path must not
// leak state between messages), a longer message in between included.
func TestEncoderReuseIsStable(t *testing.T) {
	m := RunSpec{ID: "job000001-s0", Mode: "run", Problem: "costas", Size: 12, Seed: 7, TotalWalkers: 2, Count: 1,
		Engine: EngineSpec{Strategy: "adaptive", CheckEvery: 64, InitialConfig: []int{5, 4, 3, 2, 1, 0}},
		Params: map[string]int64{"slots": 6, "rooms": 4}}
	longer := m
	longer.Portfolio = []PortfolioSpec{{Weight: 1, Engine: m.Engine}, {Weight: 2, Engine: m.Engine}}
	var e Encoder
	first, err := e.RunSpecFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.RunSpecFrame(nil, &longer); err != nil {
			t.Fatal(err)
		}
		again, err := e.RunSpecFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("encode %d differs from first", i)
		}
	}
}
