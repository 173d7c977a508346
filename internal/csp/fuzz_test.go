package csp

import (
	"errors"
	"testing"

	"repro/internal/perm"
	"repro/internal/rng"
)

// buildFuzzModel interprets raw bytes as a model-construction program:
// a header picks the variable count and value offset, then each chunk
// adds one constraint whose variable indices, coefficients, target and
// weight come straight from the input — deliberately unvalidated, so
// out-of-range variables, negative weights and coeff/var mismatches
// all reach Compile.
func buildFuzzModel(data []byte) *Model {
	if len(data) == 0 {
		return NewModel(0, 0)
	}
	n := int(int8(data[0])) % 12 // may be negative or zero, on purpose
	offset := 0
	if len(data) > 1 {
		offset = int(int8(data[1]))
		data = data[2:]
	} else {
		data = nil
	}
	m := NewModel(n, offset)
	for len(data) >= 3 {
		kind := data[0] % 4
		nvars := int(data[1] % 8)
		data = data[2:]
		vars := make([]int, 0, nvars)
		for i := 0; i < nvars && len(data) > 0; i++ {
			vars = append(vars, int(int8(data[0])))
			data = data[1:]
		}
		switch kind {
		case 0:
			m.AddLinearSum("lin", vars, nil, offset)
		case 1:
			coeffs := make([]int, 0, nvars)
			for i := 0; i < nvars && len(data) > 0; i++ {
				coeffs = append(coeffs, int(int8(data[0])))
				data = data[1:]
			}
			m.AddLinearSum("lin-coeff", vars, coeffs, 7)
		case 2:
			m.AddCustom("custom", vars, func(vals []int) int {
				s := 0
				for _, v := range vals {
					if v < 0 {
						s -= v
					} else {
						s += v
					}
				}
				return s % 97
			})
		default:
			w := 0
			if len(data) > 0 {
				w = int(int8(data[0]))
				data = data[1:]
			}
			m.AddWeighted("weighted", vars, w, func(vals []int) int { return len(vals) })
		}
	}
	return m
}

// FuzzCompile feeds arbitrary model programs through Compile and, when
// compilation succeeds, through the full engine call pattern. The
// properties: no panics anywhere, every compile failure wraps the
// typed ErrModel, and a compiled model keeps its incremental caches
// consistent with a from-scratch recount.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 0, 3, 0, 1, 2})
	f.Add([]byte{6, 0, 1, 2, 0, 1, 5, 3, 3, 2, 0, 1})
	f.Add([]byte{10, 1, 2, 4, 0, 1, 2, 3, 3, 2, 9, 8, 7})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := buildFuzzModel(data)
		p, err := m.Compile()
		if err != nil {
			if !errors.Is(err, ErrModel) {
				t.Fatalf("Compile error %v does not wrap ErrModel", err)
			}
			return
		}
		// A compiled model must survive the engine's call pattern
		// without panicking and with consistent caches.
		n := p.Size()
		r := rng.New(42)
		cfg := perm.Identity(n)
		cost := p.Cost(cfg)
		if cost < 0 {
			t.Fatalf("negative total cost %d", cost)
		}
		for step := 0; step < 8 && n >= 2; step++ {
			i := r.Intn(n)
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			_ = p.CostIfSwap(cfg, cost, i, j)
			cfg[i], cfg[j] = cfg[j], cfg[i]
			p.ExecutedSwap(cfg, i, j)
			for v := 0; v < n; v++ {
				_ = p.CostOnVariable(cfg, v)
			}
			live := p.LiveErrors(cfg)
			for v := 0; v < n; v++ {
				if want := p.CostOnVariable(cfg, v); live[v] != want {
					t.Fatalf("errVec[%d] = %d, CostOnVariable = %d", v, live[v], want)
				}
			}
			cost = p.Cost(cfg)
		}
		_ = p.Violations()
	})
}
