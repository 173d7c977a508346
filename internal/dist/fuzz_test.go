package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeRequest hammers the worker protocol decoder with arbitrary
// bytes. The contract: no panics, no unbounded allocation (the decoder
// caps body and walker sizes), and every failure wraps the
// typed ErrBadRequest. A successfully decoded request must pass its
// own Validate — decode-then-revalidate is how the worker trusts the
// value for slot arithmetic.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":4,"start":1,"count":2,"engine":{"max_iterations":100}}`))
	// The retired portfolio field: rejected as unknown.
	f.Add([]byte(`{"id":"a","mode":"virtual","problem":"costas","size":9,"seed":7,"total_walkers":8,"count":8,"portfolio":[{"weight":2,"engine":{"strategy":"adaptive"}},{"engine":{"strategy":"metropolis"}}]}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":1,"count":1,"engine":{"reset_fraction":1e308}}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":9007199254740993,"count":1}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"costas","total_walkers":2,"count":1,"engine":{"prob_select_loc_min":0.5,"initial_config":[1,0]},"exchange":{"enabled":true,"period_iters":64,"adopt_factor":1.5},"board":"http://b","board_sync_ms":2}`))
	f.Add([]byte(`{"id":"a","mode":"virtual","problem":"queens","total_walkers":4,"start":4611686018427387904,"count":4611686018427387904}`))
	f.Add([]byte(`{"id":"a","mode":"run","problem":"queens","total_walkers":1,"count":1,"board_stream":"127.0.0.1:1"}`))
	if big, err := json.Marshal(RunRequest{ID: "b", Mode: ModeRun, Problem: "magic-square", TotalWalkers: 1 << 19, Start: 0, Count: 1 << 19}); err == nil {
		f.Add(big)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails its own Validate: %v", err)
		}
		// The invariants the worker's slot accounting relies on.
		if req.Count < 1 || req.Start < 0 || req.Start+req.Count > req.TotalWalkers {
			t.Fatalf("validated request with inconsistent shard: %+v", req)
		}
	})
}
