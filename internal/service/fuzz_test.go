package service

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRequest hammers the POST /v1/solve payload decoder with
// arbitrary bytes: no panics, and every failure wraps the typed
// ErrBadRequest the HTTP layer maps to 400. Deep validation of a
// decoded request stays with the scheduler (normalizeRequest), which
// reports through the same typed error.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"problem":"costas","size":10,"walkers":2,"wait":true}`))
	// The retired portfolio field: rejected as unknown.
	f.Add([]byte(`{"problem":"queens","portfolio":[{"strategy":"adaptive","weight":2},{"strategy":"metropolis"}],"timeout_ms":500}`))
	f.Add([]byte(`{"problem":7}`))
	f.Add([]byte(`{"walkers":-1,"seed":18446744073709551615}`))
	f.Add([]byte(`{"problem":"costas","walkers":2,"exchange":{"enabled":true,"period_iters":64,"adopt_factor":1.5,"perturb_swaps":2}}`))
	// The retired strategy field: rejected as unknown.
	f.Add([]byte(`{"problem":"costas","max_iterations":-1,"strategy":"metropolis","exchange":{"enabled":true,"adopt_factor":0.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := decodeSolveBody(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		// A decoded body must be safely admissible or rejectable: run
		// it through the same validation Submit uses and require any
		// rejection to be the typed bad-request error.
		s := New(Config{Slots: 2, QueueDepth: 1})
		defer s.Close()
		if _, _, err := s.normalizeRequest(&body.Request); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("normalizeRequest error %v does not wrap ErrBadRequest", err)
		}
	})
}
