package csp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/domain"
)

// This file is the finite-domain side of the compiler: the same Model,
// compiled onto the engine's FD encoding instead of the permutation
// one. Variable i draws its values from a per-variable finite domain
// (SetDomain / SetDomainRange; default [0, n)), the move is an
// assignment cfg[i] = v, and the cached-linear-sum machinery of the
// permutation compiler is reused unchanged: an assignment changes one
// variable, so every affected linear constraint updates in O(1) from
// its cached sum and the variable's effective coefficient.

// SetDomain restricts variable i to the given engine values (the raw
// cfg values, before ValueOffset is added). Values are sorted and
// deduplicated at CompileFD time; variables without an explicit domain
// default to [0, n). Only CompileFD consults domains — Compile ignores
// them, because the permutation encoding fixes the value set.
func (m *Model) SetDomain(i int, values ...int) {
	if m.domains == nil {
		m.domains = make(map[int][]int)
	}
	m.domains[i] = append([]int(nil), values...)
}

// SetDomainRange restricts variable i to the contiguous engine values
// {lo, ..., hi}. An inverted range yields an empty domain, which
// CompileFD rejects.
func (m *Model) SetDomainRange(i, lo, hi int) {
	m.SetDomain(i, domain.Range(lo, hi)...)
}

// CompileFD validates the model and compiles it onto the engine's
// finite-domain encoding: the returned problem implements
// core.FDProblem (assign moves over per-variable domains) with the same
// cached violations, incremental deltas and maintained error vector as
// the permutation Compile path, plus a pre-search domain-reduction pass
// built from the model's linear constraints (custom fn constraints are
// opaque and do not propagate). Like Compile, the result keeps mutable
// caches and must not be shared between goroutines.
func (m *Model) CompileFD() (*CompiledFD, error) {
	base, err := m.Compile()
	if err != nil {
		return nil, err
	}
	for i := range m.domains {
		if i < 0 || i >= m.n {
			return nil, fmt.Errorf("%w: domain set for variable %d outside [0,%d)", ErrModel, i, m.n)
		}
	}
	doms := make([]domain.Domain, m.n)
	for i := 0; i < m.n; i++ {
		if vs, ok := m.domains[i]; ok {
			doms[i] = domain.New(vs...)
			if len(doms[i]) == 0 {
				return nil, fmt.Errorf("%w: variable %d has an empty domain", ErrModel, i)
			}
		} else {
			doms[i] = domain.Range(0, m.n-1)
		}
	}
	// One bounds-consistency propagator per linear constraint. The
	// model's constraints relate values (cfg[i] + ValueOffset) while
	// domains hold engine values, so the offset's total contribution
	// folds into the propagator target:
	//   Σ c_k (x_k + off) == T  ⇔  Σ c_k x_k == T - off·Σ c_k.
	var props []domain.Propagator
	for ci := range m.cons {
		c := &m.cons[ci]
		if c.fn != nil {
			continue
		}
		coeffs := c.coeffs
		coefSum := 0
		if coeffs == nil {
			coeffs = make([]int, len(c.vars))
			for k := range coeffs {
				coeffs[k] = 1
			}
			coefSum = len(c.vars)
		} else {
			for _, co := range coeffs {
				coefSum += co
			}
		}
		props = append(props, domain.Linear{
			Vars:   append([]int(nil), c.vars...),
			Coeffs: append([]int(nil), coeffs...),
			Target: c.target - m.valueOffset*coefSum,
		})
	}
	return &CompiledFD{Compiled: base, doms: doms, props: props}, nil
}

// CompiledFD is a finite-domain core.Problem produced by
// Model.CompileFD. It shares the permutation compiler's caches (one
// violation and, for linear constraints, one running sum per
// constraint; a delta-maintained error vector) and serves the FD move
// contract on top: hypothetical and executed assignments update each
// affected linear constraint in O(1) from its cached sum and the
// variable's compiled effective coefficient, with only custom (fn)
// constraints falling back to re-evaluation.
type CompiledFD struct {
	*Compiled
	doms  []domain.Domain
	props []domain.Propagator
}

var _ core.FDProblem = (*CompiledFD)(nil)
var _ core.DomainReducer = (*CompiledFD)(nil)

// Domain implements core.FDProblem. The returned slice is owned by the
// problem; ReduceDomains shrinks it in place before search starts.
func (p *CompiledFD) Domain(i int) []int { return p.doms[i] }

// ReduceDomains implements core.DomainReducer: one bounds-consistency
// propagator per linear constraint, driven to fixpoint. An error wraps
// domain.ErrUnsatisfiable and proves the model has no solution.
func (p *CompiledFD) ReduceDomains() error {
	if err := domain.Fixpoint(p.doms, p.props); err != nil {
		return fmt.Errorf("csp: %w", err)
	}
	return nil
}

// assignDelta returns the total violation change of hypothetically
// setting cfg[i] = v. Linear constraints are evaluated in O(1) each
// from the cached sums and the compiled effective coefficients; custom
// (fn) constraints re-evaluate under a transient assignment.
func (p *CompiledFD) assignDelta(cfg []int, i, v int) int {
	dv := v - cfg[i]
	delta := 0
	cons := p.model.cons
	coefs := p.byVarCoef[i]
	for k, ci := range p.byVar[i] {
		c := &cons[ci]
		if c.fn != nil {
			old := cfg[i]
			cfg[i] = v
			delta += p.violationOf(int(ci), cfg) - p.viol[ci]
			cfg[i] = old
			continue
		}
		d := p.sums[ci] + coefs[k]*dv - c.target
		if d < 0 {
			d = -d
		}
		delta += c.weight*d - p.viol[ci]
	}
	return delta
}

// CostIfAssign implements core.FDProblem in O(affected constraints),
// with O(1) work per affected linear constraint.
func (p *CompiledFD) CostIfAssign(cfg []int, cost, i, v int) int {
	if v == cfg[i] {
		return cost
	}
	return cost + p.assignDelta(cfg, i, v)
}

// CostsIfAssignAll implements core.FDProblem: the full cost row
// of variable i, indexed by domain position.
func (p *CompiledFD) CostsIfAssignAll(cfg []int, cost, i int, out []int) {
	cur := cfg[i]
	for k, v := range p.doms[i] {
		if v == cur {
			out[k] = cost
			continue
		}
		out[k] = cost + p.assignDelta(cfg, i, v)
	}
}

// ExecutedAssign implements core.FDProblem: cfg[i] already holds
// the new value; refresh the cached sums and violations of the
// constraints touching i and push the deltas onto the cached error
// vector, exactly as ExecutedSwap does on the permutation path.
func (p *CompiledFD) ExecutedAssign(cfg []int, i, old int) {
	dv := cfg[i] - old
	if dv == 0 {
		return
	}
	cons := p.model.cons
	coefs := p.byVarCoef[i]
	for k, ci := range p.byVar[i] {
		c := &cons[ci]
		var v int
		if c.fn != nil {
			v = p.violationOf(int(ci), cfg)
		} else {
			p.sums[ci] += coefs[k] * dv
			d := p.sums[ci] - c.target
			if d < 0 {
				d = -d
			}
			v = c.weight * d
		}
		p.applyViolation(int(ci), v)
	}
}
