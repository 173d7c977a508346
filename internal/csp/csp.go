// Package csp provides a small declarative modeling layer on top of the
// Adaptive Search engine: users state constraints over a permutation of
// [0, n) and the package compiles them into a core.Problem with cached
// per-constraint violations and incremental swap deltas.
//
// Adaptive Search is advertised in the paper as a generic method
// applicable to "a large class of constraints (e.g., linear and
// non-linear arithmetic constraints, symbolic constraints)"; this
// package is that generic front end. The alpha benchmark
// (internal/problems) and the custommodel example are built on it.
package csp

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrModel marks every model-validation failure reported by Compile,
// so embedders (and the fuzz suite) can separate ill-formed models
// from programming errors with errors.Is.
var ErrModel = errors.New("csp: invalid model")

// Model is a CSP over a permutation of [0, n). Variable i takes the
// value cfg[i] + ValueOffset. Add constraints with the Add* methods,
// then Compile into a core.Problem.
type Model struct {
	n           int
	valueOffset int
	cons        []constraint
	// domains holds the explicit per-variable finite domains set via
	// SetDomain/SetDomainRange; consulted only by CompileFD.
	domains map[int][]int
}

// constraint is the internal representation: linear when fn is nil.
type constraint struct {
	name   string
	vars   []int
	coeffs []int
	target int
	fn     func(vals []int) int
	weight int
}

// NewModel returns an empty model over n variables whose values are
// cfg[i] + valueOffset (use valueOffset=1 for 1-based puzzles).
func NewModel(n, valueOffset int) *Model {
	return &Model{n: n, valueOffset: valueOffset}
}

// N returns the number of variables.
func (m *Model) N() int { return m.n }

// AddLinearSum adds the constraint Σ coeffs[k]*value(vars[k]) == target.
// Variables may repeat (e.g. double letters in a word puzzle); coeffs
// may be nil, meaning all ones. The violation is the absolute deviation.
func (m *Model) AddLinearSum(name string, vars []int, coeffs []int, target int) {
	m.cons = append(m.cons, constraint{name: name, vars: vars, coeffs: coeffs, target: target, weight: 1})
}

// AddCustom adds a constraint whose violation is computed by fn from the
// values of vars (in order, repetition allowed). fn must return 0 when
// satisfied and a positive error otherwise, and must not retain vals.
func (m *Model) AddCustom(name string, vars []int, fn func(vals []int) int) {
	m.cons = append(m.cons, constraint{name: name, vars: vars, fn: fn, weight: 1})
}

// AddWeighted is AddCustom with a violation multiplier, letting models
// prioritize constraints.
func (m *Model) AddWeighted(name string, vars []int, weight int, fn func(vals []int) int) {
	m.cons = append(m.cons, constraint{name: name, vars: vars, fn: fn, weight: weight})
}

// Constraints returns the number of constraints added so far.
func (m *Model) Constraints() int { return len(m.cons) }

// Compile validates the model and returns a core.Problem with cached
// violations and incremental swap deltas. The compiled problem keeps
// mutable caches and must not be shared between goroutines; compile one
// instance per walker.
func (m *Model) Compile() (*Compiled, error) {
	if m.n < 1 {
		return nil, fmt.Errorf("%w: needs at least 1 variable, has %d", ErrModel, m.n)
	}
	if len(m.cons) == 0 {
		return nil, fmt.Errorf("%w: no constraints", ErrModel)
	}
	byVar := make([][]int32, m.n)
	byVarCoef := make([][]int, m.n)
	conVars := make([][]int32, len(m.cons))
	maxVars := 0
	for ci, c := range m.cons {
		if len(c.vars) == 0 {
			return nil, fmt.Errorf("%w: constraint %q has no variables", ErrModel, c.name)
		}
		if c.fn == nil && c.coeffs != nil && len(c.coeffs) != len(c.vars) {
			return nil, fmt.Errorf("%w: constraint %q has %d coeffs for %d vars", ErrModel, c.name, len(c.coeffs), len(c.vars))
		}
		if c.weight <= 0 {
			return nil, fmt.Errorf("%w: constraint %q has non-positive weight %d", ErrModel, c.name, c.weight)
		}
		// Effective (summed-over-occurrences) coefficient per distinct
		// variable: the O(1) ingredient of the linear delta paths. A
		// repeated variable (double letters in a word puzzle) folds its
		// occurrences into one entry.
		coefOf := map[int]int{}
		for k, v := range c.vars {
			if v < 0 || v >= m.n {
				return nil, fmt.Errorf("%w: constraint %q references variable %d outside [0,%d)", ErrModel, c.name, v, m.n)
			}
			coef := 1
			if c.coeffs != nil {
				coef = c.coeffs[k]
			}
			if _, dup := coefOf[v]; !dup {
				conVars[ci] = append(conVars[ci], int32(v))
			}
			coefOf[v] += coef
		}
		for _, v := range conVars[ci] {
			byVar[v] = append(byVar[v], int32(ci))
			byVarCoef[v] = append(byVarCoef[v], coefOf[int(v)])
		}
		if len(c.vars) > maxVars {
			maxVars = len(c.vars)
		}
	}
	return &Compiled{
		model:     m,
		byVar:     byVar,
		byVarCoef: byVarCoef,
		conVars:   conVars,
		viol:      make([]int, len(m.cons)),
		sums:      make([]int, len(m.cons)),
		errVec:    make([]int, m.n),
		stamp:     make([]int64, len(m.cons)),
		stamp2:    make([]int64, len(m.cons)),
		coefJ:     make([]int, len(m.cons)),
		vals:      make([]int, maxVars),
	}, nil
}

// Compiled is a core.Problem produced by Model.Compile. It caches one
// violation (and, for linear constraints, the current sum) per
// constraint and updates only the constraints touching a swapped
// variable. Hypothetical swaps of linear constraints are evaluated in
// O(1) per affected constraint from the cached sums and the compiled
// per-variable effective coefficients — no constraint is ever
// re-summed on the hot path; only custom (fn) constraints fall back to
// full re-evaluation.
type Compiled struct {
	model *Model
	byVar [][]int32
	// byVarCoef mirrors byVar: the effective (occurrence-summed)
	// coefficient of the variable in each of its constraints.
	byVarCoef [][]int
	// conVars lists the distinct variables of each constraint, the
	// transpose of byVar, used to push violation deltas onto errVec.
	conVars [][]int32
	viol    []int
	// sums caches each linear constraint's current Σ coeff*value;
	// meaningless for custom constraints. Maintained by Cost and
	// ExecutedSwap alongside viol.
	sums []int

	// errVec caches the per-variable projected errors (the sum of
	// cached violations over each variable's constraints). It is
	// updated incrementally by ExecutedSwap and rebuilt lazily after a
	// full Cost recompute; errValid tracks whether it matches viol.
	errVec   []int
	errValid bool

	// stamp implements allocation-free dedup of the constraints
	// affected by a swap; gen increments per query. stamp2/coefJ are a
	// second generation-stamped scratch used by the swap evaluators to
	// mark one endpoint's constraints and remember its coefficient in
	// them.
	stamp  []int64
	gen    int64
	stamp2 []int64
	coefJ  []int
	gen2   int64

	vals []int
}

var _ core.Problem = (*Compiled)(nil)
var _ core.SwapExecutor = (*Compiled)(nil)
var _ core.MaintainedErrorVector = (*Compiled)(nil)
var _ core.MoveEvaluator = (*Compiled)(nil)

// Size implements core.Problem.
func (p *Compiled) Size() int { return p.model.n }

// sumOf computes the linear sum Σ coeff*value of constraint ci under
// cfg. Only meaningful when the constraint is linear (fn == nil).
func (p *Compiled) sumOf(ci int, cfg []int) int {
	c := &p.model.cons[ci]
	sum := 0
	if c.coeffs == nil {
		for _, v := range c.vars {
			sum += cfg[v] + p.model.valueOffset
		}
	} else {
		for k, v := range c.vars {
			sum += c.coeffs[k] * (cfg[v] + p.model.valueOffset)
		}
	}
	return sum
}

// violationOf computes the violation of constraint ci under cfg from
// scratch.
func (p *Compiled) violationOf(ci int, cfg []int) int {
	c := &p.model.cons[ci]
	if c.fn != nil {
		vals := p.vals[:len(c.vars)]
		for k, v := range c.vars {
			vals[k] = cfg[v] + p.model.valueOffset
		}
		return c.weight * c.fn(vals)
	}
	d := p.sumOf(ci, cfg) - c.target
	if d < 0 {
		d = -d
	}
	return c.weight * d
}

// Cost implements core.Problem, rebuilding every cached violation and
// linear sum. The cached error vector is invalidated and rebuilt lazily
// on the next LiveErrors/ErrorsOnVariables call.
func (p *Compiled) Cost(cfg []int) int {
	total := 0
	for ci := range p.model.cons {
		c := &p.model.cons[ci]
		var v int
		if c.fn == nil {
			s := p.sumOf(ci, cfg)
			p.sums[ci] = s
			d := s - c.target
			if d < 0 {
				d = -d
			}
			v = c.weight * d
		} else {
			v = p.violationOf(ci, cfg)
		}
		p.viol[ci] = v
		total += v
	}
	p.errValid = false
	return total
}

// CostOnVariable implements core.Problem: the sum of cached violations
// of the constraints mentioning variable i.
func (p *Compiled) CostOnVariable(cfg []int, i int) int {
	e := 0
	for _, ci := range p.byVar[i] {
		e += p.viol[ci]
	}
	return e
}

// markI stamps the constraints touching variable i with a fresh
// generation, so the second pass of a swap evaluation can skip the
// overlap in O(1).
func (p *Compiled) markI(i int) {
	p.gen++
	for _, ci := range p.byVar[i] {
		p.stamp[ci] = p.gen
	}
}

// markJ stamps variable j's constraints with a fresh second-family
// generation and records j's effective coefficient in each, letting the
// pass over variable i's constraints fold in j's contribution in O(1)
// when a constraint contains both endpoints.
func (p *Compiled) markJ(j int) {
	p.gen2++
	coefs := p.byVarCoef[j]
	for k, ci := range p.byVar[j] {
		p.stamp2[ci] = p.gen2
		p.coefJ[ci] = coefs[k]
	}
}

// swapDelta returns the total violation change of hypothetically
// swapping positions i and j. Linear constraints are evaluated in O(1)
// each from the cached sums and compiled coefficients; custom (fn)
// constraints re-evaluate under a transient swap. The caller must have
// called markI(i) and markJ(j) first (markI may be hoisted across many
// j's — it depends only on i).
func (p *Compiled) swapDelta(cfg []int, i, j int) int {
	dv := cfg[j] - cfg[i] // value change at position i; position j gets -dv
	delta := 0
	cons := p.model.cons
	coefs := p.byVarCoef[i]
	for k, ci := range p.byVar[i] {
		c := &cons[ci]
		if c.fn != nil {
			cfg[i], cfg[j] = cfg[j], cfg[i]
			delta += p.violationOf(int(ci), cfg) - p.viol[ci]
			cfg[i], cfg[j] = cfg[j], cfg[i]
			continue
		}
		ds := coefs[k] * dv
		if p.stamp2[ci] == p.gen2 {
			ds -= p.coefJ[ci] * dv
		}
		d := p.sums[ci] + ds - c.target
		if d < 0 {
			d = -d
		}
		delta += c.weight*d - p.viol[ci]
	}
	coefs = p.byVarCoef[j]
	for k, ci := range p.byVar[j] {
		if p.stamp[ci] == p.gen {
			continue // contains i too: handled above
		}
		c := &cons[ci]
		if c.fn != nil {
			cfg[i], cfg[j] = cfg[j], cfg[i]
			delta += p.violationOf(int(ci), cfg) - p.viol[ci]
			cfg[i], cfg[j] = cfg[j], cfg[i]
			continue
		}
		d := p.sums[ci] - coefs[k]*dv - c.target
		if d < 0 {
			d = -d
		}
		delta += c.weight*d - p.viol[ci]
	}
	return delta
}

// CostIfSwap implements core.Problem in O(affected constraints), with
// O(1) work per affected linear constraint.
func (p *Compiled) CostIfSwap(cfg []int, cost, i, j int) int {
	p.markI(i)
	p.markJ(j)
	return cost + p.swapDelta(cfg, i, j)
}

// CostsIfSwapAll implements core.MoveEvaluator: the full cost row for
// variable i. The stamping of variable i's constraints is hoisted out
// of the partner loop; each candidate then pays O(1) per affected
// linear constraint, never re-summing anything.
func (p *Compiled) CostsIfSwapAll(cfg []int, cost, i int, out []int) {
	p.markI(i)
	for j := range cfg {
		if j == i {
			out[i] = cost
			continue
		}
		p.markJ(j)
		out[j] = cost + p.swapDelta(cfg, i, j)
	}
}

// ExecutedSwap implements core.SwapExecutor: cfg is already swapped;
// refresh the cached sums and violations of the affected constraints
// and push the deltas onto the cached error vector, keeping the
// error-vector fast path valid without a rebuild.
func (p *Compiled) ExecutedSwap(cfg []int, i, j int) {
	dv := cfg[i] - cfg[j] // value change at position i (post- minus pre-swap)
	p.markI(i)
	p.markJ(j)
	cons := p.model.cons
	coefs := p.byVarCoef[i]
	for k, ci := range p.byVar[i] {
		c := &cons[ci]
		var v int
		if c.fn != nil {
			v = p.violationOf(int(ci), cfg)
		} else {
			ds := coefs[k] * dv
			if p.stamp2[ci] == p.gen2 {
				ds -= p.coefJ[ci] * dv
			}
			p.sums[ci] += ds
			d := p.sums[ci] - c.target
			if d < 0 {
				d = -d
			}
			v = c.weight * d
		}
		p.applyViolation(int(ci), v)
	}
	coefs = p.byVarCoef[j]
	for k, ci := range p.byVar[j] {
		if p.stamp[ci] == p.gen {
			continue // contains i too: handled above
		}
		c := &cons[ci]
		var v int
		if c.fn != nil {
			v = p.violationOf(int(ci), cfg)
		} else {
			p.sums[ci] -= coefs[k] * dv
			d := p.sums[ci] - c.target
			if d < 0 {
				d = -d
			}
			v = c.weight * d
		}
		p.applyViolation(int(ci), v)
	}
}

// applyViolation commits a refreshed violation, pushing the delta onto
// the cached error vector when it is valid.
func (p *Compiled) applyViolation(ci, v int) {
	if p.errValid {
		if delta := v - p.viol[ci]; delta != 0 {
			for _, vr := range p.conVars[ci] {
				p.errVec[vr] += delta
			}
		}
	}
	p.viol[ci] = v
}

// LiveErrors implements core.MaintainedErrorVector: the engine's
// batched fast path for worst-variable selection. The vector is
// maintained incrementally by ExecutedSwap (only constraints touching a
// swapped variable push deltas) and rebuilt from the cached violations
// lazily after a full Cost recompute, so the per-iteration O(n)
// CostOnVariable scan never recomputes constraint sums from scratch —
// and the engine serves it without invalidation or copying.
func (p *Compiled) LiveErrors(cfg []int) []int {
	if !p.errValid {
		for i := range p.errVec {
			p.errVec[i] = 0
		}
		for ci, v := range p.viol {
			if v == 0 {
				continue
			}
			for _, vr := range p.conVars[ci] {
				p.errVec[vr] += v
			}
		}
		p.errValid = true
	}
	return p.errVec
}

// ErrorsOnVariables implements core.ErrorVector.
func (p *Compiled) ErrorsOnVariables(cfg []int, out []int) {
	copy(out, p.LiveErrors(cfg))
}

// Violations returns a copy of the per-constraint violations as of the
// last Cost/ExecutedSwap, labelled by constraint name. Diagnostic: used
// by the CLI's -explain flag and by tests.
func (p *Compiled) Violations() map[string]int {
	out := make(map[string]int, len(p.viol))
	for ci, v := range p.viol {
		out[p.model.cons[ci].name] = v
	}
	return out
}
