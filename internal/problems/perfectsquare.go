package problems

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(builder{
		name:        "perfect-square",
		description: "Perfect Square placement: tile a master rectangle exactly with the given set of squares (CSPLib prob009)",
		defaultSize: 9,
		paperSize:   21,
		maxSize:     4096, // 64x64 unit squares: the synthetic master splits no further
		build:       func(n int) (core.Problem, error) { return NewPerfectSquare(n) },
	})
}

// bouwkamp21 is the order-21 simple perfect squared square (Duijvestijn
// 1978): 21 distinct squares tiling a 112 x 112 master square, listed in
// Bouwkamp order (the order in which a greedy lowest-leftmost filler
// reproduces the tiling). This is the classic CSPLib prob009 instance.
var bouwkamp21 = []int{50, 35, 27, 8, 19, 15, 17, 11, 6, 24, 29, 25, 9, 2, 7, 18, 16, 42, 4, 37, 33}

const bouwkampMaster = 112

// moron9 is Moroń's order-9 perfect squared rectangle (1925): nine
// distinct squares tiling 33 x 32, listed in the order a greedy
// lowest-leftmost filler reproduces the tiling. It is the smallest
// classical instance of the family and the default for laptop-scale
// experiments (the paper-scale Bouwkamp square takes far longer per
// solve; DESIGN.md §2 describes the scaled instances, and that their
// runtime distributions share the paper-scale family is untested).
var moron9 = []int{18, 15, 7, 8, 14, 4, 10, 1, 9}

const (
	moronWidth  = 33
	moronHeight = 32
)

// PerfectSquare encodes CSPLib prob009 as a permutation-plus-decoder
// problem: the configuration orders the squares, and a greedy skyline
// decoder places each square in turn at the lowest-leftmost free corner
// of the master square. Orderings that recreate the tiling produce no
// holes and no overflow; the cost is the total misplaced area (holes
// created under squares + volume above the master + uncovered area), so
// cost 0 is exactly a perfect tiling.
//
// The paper's C library encodes prob009 natively; the decoder encoding
// is this reproduction's documented substitution (DESIGN.md §6): it
// preserves the permutation search space and swap neighborhood that
// Adaptive Search requires.
type PerfectSquare struct {
	sizes   []int // square edge lengths, indexed by square id
	width   int   // master width W (skyline length)
	height  int   // master height H (target skyline level)
	heights []int // skyline scratch, length W
	stepErr []int // cached per-step misplacement, updated by Cost/ExecutedSwap
	scratch []int // second skyline for CostIfSwap decodes
}

// NewPerfectSquare returns an instance with n squares. n = 21 selects
// the classic Bouwkamp squared square; n = 9 selects Moroń's squared
// rectangle; other values of n (of the form 3k+1) build a synthetic
// exactly-tileable instance by recursive subdivision, used for scale
// sweeps and tests. Any other n is rejected.
func NewPerfectSquare(n int) (*PerfectSquare, error) {
	switch {
	case n == 21:
		return NewPerfectSquareInstance(bouwkamp21, bouwkampMaster, bouwkampMaster)
	case n == 9:
		return NewPerfectSquareInstance(moron9, moronWidth, moronHeight)
	case n >= 4 && n%3 == 1:
		sizes, master := subdivisionInstance(n)
		return NewPerfectSquareInstance(sizes, master, master)
	default:
		return nil, fmt.Errorf("perfect-square: size must be 21 (Bouwkamp), 9 (Moroń) or 3k+1 >= 4 (synthetic), got %d", n)
	}
}

// NewPerfectSquareInstance builds an instance from explicit square
// sizes and a master width x height rectangle; the squares' total area
// must equal the master's (otherwise no perfect tiling can exist).
func NewPerfectSquareInstance(sizes []int, width, height int) (*PerfectSquare, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("perfect-square: master %dx%d must be positive", width, height)
	}
	area := 0
	for _, s := range sizes {
		if s < 1 || s > width || s > height {
			return nil, fmt.Errorf("perfect-square: square size %d does not fit the %dx%d master", s, width, height)
		}
		area += s * s
	}
	if area != width*height {
		return nil, fmt.Errorf("perfect-square: total area %d != master area %d — no perfect tiling exists", area, width*height)
	}
	own := make([]int, len(sizes))
	copy(own, sizes)
	return &PerfectSquare{
		sizes:   own,
		width:   width,
		height:  height,
		heights: make([]int, width),
		stepErr: make([]int, len(sizes)),
		scratch: make([]int, width),
	}, nil
}

// subdivisionInstance builds n = 3k+1 squares exactly tiling a power-of-
// two master by repeatedly splitting the largest square into four
// halves.
func subdivisionInstance(n int) (sizes []int, master int) {
	master = 64
	sizes = []int{master}
	for len(sizes) < n {
		// Split the largest splittable square (edge > 1).
		best := -1
		for i, s := range sizes {
			if s > 1 && (best < 0 || s > sizes[best]) {
				best = i
			}
		}
		s := sizes[best]
		h := s / 2
		sizes[best] = h
		sizes = append(sizes, h, h, h)
	}
	return sizes, master
}

// Master returns the master rectangle dimensions.
func (p *PerfectSquare) Master() (width, height int) { return p.width, p.height }

// Sizes returns a copy of the square edge lengths.
func (p *PerfectSquare) Sizes() []int {
	out := make([]int, len(p.sizes))
	copy(out, p.sizes)
	return out
}

// Size implements core.Problem: the number of squares to order.
func (p *PerfectSquare) Size() int { return len(p.sizes) }

// decode places the squares in cfg order with the greedy skyline filler
// and returns the total cost. When stepErr is non-nil it also records
// the per-step misplacement (holes created plus overflow volume).
func (p *PerfectSquare) decode(cfg []int, heights []int, stepErr []int) int {
	w := p.width
	for x := range heights {
		heights[x] = 0
	}
	holes := 0
	for step, sq := range cfg {
		s := p.sizes[sq]
		// Lowest-leftmost corner.
		h0, x0 := heights[0], 0
		for x := 1; x < w; x++ {
			if heights[x] < h0 {
				h0, x0 = heights[x], x
			}
		}
		// Width of the flat gap at h0 starting at x0.
		gap := 0
		for x := x0; x < w && heights[x] == h0; x++ {
			gap++
		}
		stepCost := 0
		if s <= gap {
			// Fits flush: no holes.
			for x := x0; x < x0+s; x++ {
				heights[x] = h0 + s
			}
			if top := h0 + s - p.height; top > 0 {
				stepCost += top * s // overflow volume above the master
			}
		} else {
			// Penalty placement: sit on the maximum height of the
			// covered span, creating holes underneath.
			if x0 > w-s {
				x0 = w - s
			}
			hMax := 0
			for x := x0; x < x0+s; x++ {
				if heights[x] > hMax {
					hMax = heights[x]
				}
			}
			for x := x0; x < x0+s; x++ {
				stepCost += hMax - heights[x]
				heights[x] = hMax + s
			}
			if top := hMax + s - p.height; top > 0 {
				stepCost += top * s
			}
		}
		holes += stepCost
		if stepErr != nil {
			stepErr[step] = stepCost
		}
	}
	// Terminal deficit/excess: uncovered columns and columns above H.
	deficitExcess := 0
	for x := 0; x < w; x++ {
		d := heights[x] - p.height
		if d < 0 {
			d = -d
		}
		deficitExcess += d
	}
	return holes + deficitExcess
}

// Cost implements core.Problem and refreshes the per-step error cache.
func (p *PerfectSquare) Cost(cfg []int) int {
	return p.decode(cfg, p.heights, p.stepErr)
}

// CostOnVariable implements core.Problem: the cached misplacement
// attributed to placement step i.
func (p *PerfectSquare) CostOnVariable(cfg []int, i int) int {
	return p.stepErr[i]
}

// CostIfSwap implements core.Problem with a full scratch decode of the
// swapped ordering (O(n·W); n and W are small for every instance).
func (p *PerfectSquare) CostIfSwap(cfg []int, cost, i, j int) int {
	cfg[i], cfg[j] = cfg[j], cfg[i]
	c := p.decode(cfg, p.scratch, nil)
	cfg[i], cfg[j] = cfg[j], cfg[i]
	return c
}

// CostsIfSwapAll implements core.PermProblem: one devirtualized pass
// of scratch decodes (the decoder is inherently global, so each
// candidate still pays a full decode).
func (p *PerfectSquare) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	for j := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		cfg[i], cfg[j] = cfg[j], cfg[i]
		out[j] = p.decode(cfg, p.scratch, nil)
		cfg[i], cfg[j] = cfg[j], cfg[i]
	}
}

// ExecutedSwap implements core.PermProblem by re-decoding to refresh
// the per-step error cache.
func (p *PerfectSquare) ExecutedSwap(cfg []int, i, j int) {
	p.decode(cfg, p.heights, p.stepErr)
}

// LiveErrors implements core.Problem: the per-step error
// cache IS the error vector, and Cost/ExecutedSwap keep it current.
func (p *PerfectSquare) LiveErrors(cfg []int) []int { return p.stepErr }

var _ core.PermProblem = (*PerfectSquare)(nil)

// Tune implements core.Tuner: the decoder landscape is plateau-rich, so
// a substantial probabilistic escape and frequent small resets help.
func (p *PerfectSquare) Tune(o *core.Options) {
	o.ProbSelectLocMin = 0.25
	o.FreezeLocMin = 2
	o.ResetLimit = 3
	o.ResetFraction = 0.3
	o.MaxIterations = 20_000
}

// Verify reports whether cfg decodes to a perfect tiling, independently
// of the cached state.
func (p *PerfectSquare) Verify(cfg []int) bool {
	if len(cfg) != len(p.sizes) {
		return false
	}
	seen := make([]bool, len(cfg))
	for _, v := range cfg {
		if v < 0 || v >= len(cfg) || seen[v] {
			return false
		}
		seen[v] = true
	}
	h := make([]int, p.width)
	return p.decode(cfg, h, nil) == 0
}
