package multiwalk

import (
	"sync"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/rng"
)

// Board is the shared state of the dependent multiple-walk scheme: the
// best cost seen by any walker and the configuration that achieved it.
// Communication is intentionally minimal — the paper's design goals for
// the dependent scheme are (1) minimal data transfer and (2) reuse of
// interesting crossroads as restart points.
//
// Run creates a private in-process board per exchange-enabled run;
// Options.Board overrides it with an external implementation, which is
// how the scheme crosses process boundaries: internal/dist hands each
// worker a write-through cache of a coordinator-hosted global board, so
// walkers on different machines share one elite pool while the hot loop
// only ever touches process-local memory. Implementations must be safe
// for concurrent use by all walkers of a run.
type Board interface {
	// Publish offers a (cost, cfg) pair; the board keeps it if it
	// improves on the current best. The configuration is copied, so
	// callers may pass a live engine view.
	Publish(cost int, cfg []int)
	// Snapshot returns the best cost and a private copy of the best
	// configuration, or ok=false while nothing has been published.
	Snapshot() (cost int, cfg []int, ok bool)
}

// localBoard is the in-process Board: a mutex-guarded monotone-min
// (cost, cfg) cell.
type localBoard struct {
	mu       sync.Mutex
	bestCost int
	bestCfg  []int
	valid    bool
}

// NewLocalBoard returns the in-process Board implementation. Run
// creates one automatically for exchange-enabled runs; external
// executors reuse it as the coordinator-side global board.
func NewLocalBoard() Board {
	return &localBoard{}
}

// Publish implements Board. The stored configuration always has the
// length of the winning publish: a board shared by callers that
// disagree on n re-fits the buffer instead of silently truncating the
// copy (which would hand corrupt elite configurations to adopters).
func (b *localBoard) Publish(cost int, cfg []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.valid || cost < b.bestCost {
		b.bestCost = cost
		if len(b.bestCfg) != len(cfg) {
			b.bestCfg = make([]int, len(cfg))
		}
		copy(b.bestCfg, cfg)
		b.valid = true
	}
}

// Best returns the current best cost without copying the
// configuration — the cheap read the dist layer's dirty-flag sync uses
// to classify a Publish as an improvement before paying for a
// Snapshot. The second return is false while the board is empty.
func (b *localBoard) Best() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bestCost, b.valid
}

// Snapshot implements Board.
func (b *localBoard) Snapshot() (cost int, cfg []int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.valid {
		return 0, nil, false
	}
	out := make([]int, len(b.bestCfg))
	copy(out, b.bestCfg)
	return b.bestCost, out, true
}

// boardMonitor returns the engine Monitor implementing the exchange
// policy for one walker against b: every Period iterations, publish my
// state; if my cost is AdoptFactor times worse than the board's best,
// teleport to a perturbed copy of the elite configuration; if the board
// proves the job solved elsewhere (best cost 0), stop and mark the
// walker Yielded so accounting can tell it from an external cancel.
//
// The perturbation is encoding-aware: permutation problems scramble the
// elite with random transpositions (which preserve the permutation
// invariant), finite-domain problems reassign random variables to
// random in-domain values (a transposition could leave a variable
// holding a value outside its domain, which the engine's
// ValidateConfig teleport gate would reject). PerturbSwaps counts
// moves in both encodings.
func boardMonitor(b Board, stat *WalkerStat, x ExchangeOptions, p core.Problem, seed uint64) func(int64, int, []int) core.Directive {
	r := rng.New(seed ^ 0x9e3779b97f4a7c15) // walker-private perturbation stream
	n := p.Size()
	fd, isFD := p.(core.FDProblem)
	perturb := x.PerturbSwaps
	if perturb == 0 {
		perturb = n / 16
		if perturb < 2 {
			perturb = 2
		}
	}
	var lastCheck int64
	return func(iter int64, cost int, cfg []int) core.Directive {
		if iter-lastCheck < x.Period {
			return core.Directive{}
		}
		lastCheck = iter
		b.Publish(cost, cfg)
		best, elite, ok := b.Snapshot()
		if !ok || elite == nil {
			return core.Directive{}
		}
		// Adopt only when clearly lagging; cost==0 cannot be lagging.
		if best > 0 && float64(cost) > x.AdoptFactor*float64(best) {
			if isFD {
				for k := 0; k < perturb; k++ {
					i := r.Intn(n)
					d := fd.Domain(i)
					elite[i] = d[r.Intn(len(d))]
				}
			} else {
				perm.RandomSwaps(elite, perturb, r)
			}
			stat.Adoptions++
			return core.Directive{SetConfig: elite}
		}
		if best == 0 && cost > 0 {
			// Someone already solved; stop wasting work. This is faster
			// and more deterministic than waiting for the external
			// cancel, and Yielded records that the walker stopped
			// because the job was won — not because a caller cancelled.
			stat.Yielded = true
			return core.Directive{Stop: true}
		}
		return core.Directive{}
	}
}
