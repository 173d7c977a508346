package wire

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
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

func TestProgressRoundTrip(t *testing.T) {
	cases := []Progress{
		{Job: "j000001", State: "queued", Walker: -1},
		{Job: "j000002", State: "running", Walker: 3, Iterations: 123456, Cost: 9},
		{
			Job: "j000003", State: "solved", Walker: -1, Terminal: true,
			Result: &ProgressResult{
				Solved: true, Winner: 2, WinnerStrategy: "adaptive", WinnerIterations: 999,
				TotalIterations: 4321, Completed: 4, ElapsedMS: 17, Adoptions: 3, Yielded: 1,
				Solution: []int{2, 0, 3, 1},
			},
		},
		{Job: "j000004", State: "failed", Walker: -1, Terminal: true, Error: "bad request"},
	}
	for _, in := range cases {
		buf := frameOf(t, func(e *Encoder, dst []byte) ([]byte, error) { return e.ProgressFrame(dst, &in) })
		typ, payload, _, err := DecodeFrame(buf)
		if err != nil || typ != TypeProgress {
			t.Fatalf("DecodeFrame: typ=%#x err=%v", typ, err)
		}
		out, err := DecodeProgress(payload)
		if err != nil {
			t.Fatalf("DecodeProgress(%+v): %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	}
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

func TestHelloSubscribeRoundTrip(t *testing.T) {
	hbuf := frameOf(t, func(e *Encoder, dst []byte) ([]byte, error) { return e.HelloFrame(dst, &Hello{Role: "worker"}) })
	typ, payload, _, err := DecodeFrame(hbuf)
	if err != nil || typ != TypeHello {
		t.Fatalf("DecodeFrame(hello): typ=%#x err=%v", typ, err)
	}
	h, err := DecodeHello(payload)
	if err != nil || h.Role != "worker" {
		t.Fatalf("DecodeHello: %+v err=%v", h, err)
	}

	sbuf := frameOf(t, func(e *Encoder, dst []byte) ([]byte, error) {
		return e.SubscribeFrame(dst, &Subscribe{Job: "job000001"})
	})
	typ, payload, _, err = DecodeFrame(sbuf)
	if err != nil || typ != TypeSubscribe {
		t.Fatalf("DecodeFrame(subscribe): typ=%#x err=%v", typ, err)
	}
	s, err := DecodeSubscribe(payload)
	if err != nil || s.Job != "job000001" {
		t.Fatalf("DecodeSubscribe: %+v err=%v", s, err)
	}
}

func TestDecodeErrorsAreTyped(t *testing.T) {
	valid := frameOf(t, func(e *Encoder, dst []byte) ([]byte, error) {
		return e.ProgressFrame(dst, &Progress{Job: "j", State: "solved", Walker: -1, Terminal: true,
			Result: &ProgressResult{Solved: true, Solution: []int{1, 0, 2}}})
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
	if typ != TypeProgress {
		t.Fatalf("typ=%#x", typ)
	}
	corrupt := append([]byte{0xff, 0x7f}, payload[1:]...)
	if _, err := DecodeProgress(corrupt); !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTruncated) {
		t.Errorf("corrupt string length: got %v", err)
	}

	// Trailing garbage after a complete message.
	if _, err := DecodeProgress(append(append([]byte(nil), payload...), 0xAA)); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing bytes: got %v, want ErrMalformed", err)
	}

	// Encoder must refuse messages that would exceed the frame cap.
	var e Encoder
	if _, err := e.ProgressFrame(nil, &Progress{Result: &ProgressResult{Solution: make([]int, MaxFrame)}}); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized encode: got %v, want ErrFrameTooBig", err)
	}
}

// TestEncoderReuseIsStable pins that a reused Encoder produces
// identical bytes across calls (the zero-alloc fast path must not
// leak state between messages).
func TestEncoderReuseIsStable(t *testing.T) {
	m := Progress{Job: "job000001", State: "solved", Walker: -1, Terminal: true,
		Result: &ProgressResult{Solved: true, Winner: 3, Solution: []int{5, 4, 3, 2, 1, 0}}}
	var e Encoder
	first, err := e.ProgressFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := e.ProgressFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("encode %d differs from first", i)
		}
	}
}

// TestConnHandshakeAndFrames drives a real TCP pair through the
// handshake and a multiplexed write/read exchange, including the byte
// counters the telemetry layer samples.
func TestConnHandshakeAndFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type serverResult struct {
		hello Hello
		sub   Subscribe
		err   error
	}
	done := make(chan serverResult, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		c := NewConn(nc)
		defer c.Close()
		h, err := c.AcceptHandshake("service", 5*time.Second)
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		var out serverResult
		out.hello = h
		typ, payload, err := c.ReadFrame()
		if err != nil || typ != TypeSubscribe {
			done <- serverResult{err: err}
			return
		}
		out.sub, _ = DecodeSubscribe(payload)
		// Answer with the job's terminal event so the client read path
		// is exercised too.
		out.err = c.WriteProgress(&Progress{Job: out.sub.Job, State: "solved", Walker: -1, Terminal: true,
			Result: &ProgressResult{Solved: true, Winner: 1, Solution: []int{1, 0}}})
		done <- out
	}()

	c, err := Dial(ln.Addr().String(), "client", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteSubscribe("job000001"); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadFrame()
	if err != nil || typ != TypeProgress {
		t.Fatalf("client read: typ=%#x err=%v", typ, err)
	}
	final, err := DecodeProgress(payload)
	if err != nil || !final.Terminal || final.Result == nil || final.Result.Winner != 1 {
		t.Fatalf("final = %+v err=%v", final, err)
	}

	srv := <-done
	if srv.err != nil {
		t.Fatalf("server: %v", srv.err)
	}
	if srv.hello.Role != "client" || srv.sub.Job != "job000001" {
		t.Errorf("server saw hello=%+v sub=%+v", srv.hello, srv.sub)
	}
	if c.BytesWritten() == 0 || c.BytesRead() == 0 {
		t.Errorf("byte counters not maintained: tx=%d rx=%d", c.BytesWritten(), c.BytesRead())
	}
}
