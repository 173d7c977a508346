package problems

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/csp"
)

func init() {
	register(builder{
		name:        "alpha",
		description: "The alphacipher: assign 1..26 to letters so 20 word-sum equations hold (rec.puzzles classic)",
		defaultSize: 26,
		paperSize:   26,
		maxSize:     26,
		build: func(n int) (core.Problem, error) {
			if n != 26 {
				return nil, fmt.Errorf("alpha: the alphacipher has exactly 26 variables, got size %d", n)
			}
			return NewAlpha()
		},
	})
}

// alphaEquations is the classic rec.puzzles instance shipped with the C
// Adaptive Search library and the GNU Prolog examples: the sum of the
// letter values of each word must equal the given target.
var alphaEquations = map[string]int{
	"ballet":    45,
	"cello":     43,
	"concert":   74,
	"flute":     30,
	"fugue":     50,
	"glee":      66,
	"jazz":      58,
	"lyre":      47,
	"oboe":      53,
	"opera":     65,
	"polka":     59,
	"quartet":   50,
	"saxophone": 134,
	"scale":     51,
	"solo":      37,
	"song":      61,
	"soprano":   82,
	"theme":     72,
	"violin":    100,
	"waltz":     34,
}

// Alpha is the alphacipher benchmark, built on the declarative modeling
// layer (internal/csp): variable i is the letter 'a'+i, its value is
// cfg[i]+1, and each word contributes one linear-sum constraint.
type Alpha struct {
	*csp.Compiled
}

// NewAlpha constructs the classic 26-letter, 20-equation instance.
func NewAlpha() (*Alpha, error) {
	return newAlphaFromEquations(alphaEquations)
}

// NewAlphaFromEquations builds an alphacipher-style instance from
// arbitrary word-sum equations over lowercase words. Used by tests to
// create synthetic satisfiable instances.
func NewAlphaFromEquations(eqs map[string]int) (*Alpha, error) {
	return newAlphaFromEquations(eqs)
}

func newAlphaFromEquations(eqs map[string]int) (*Alpha, error) {
	m := csp.NewModel(26, 1)
	for word, target := range eqs {
		vars := make([]int, 0, len(word))
		for _, r := range strings.ToLower(word) {
			if r < 'a' || r > 'z' {
				return nil, fmt.Errorf("alpha: word %q contains non-letter %q", word, r)
			}
			vars = append(vars, int(r-'a'))
		}
		if len(vars) == 0 {
			return nil, fmt.Errorf("alpha: empty word")
		}
		m.AddLinearSum(word, vars, nil, target)
	}
	compiled, err := m.Compile()
	if err != nil {
		return nil, fmt.Errorf("alpha: %w", err)
	}
	return &Alpha{Compiled: compiled}, nil
}

// Name implements core.Namer.
func (a *Alpha) Name() string { return "alpha" }

// Tune implements core.Tuner: alpha is small (26 variables) and densely
// constrained, so the exhaustive pair scan pays for itself; plateau
// cycling is broken by bounded runs with unlimited restarts.
func (a *Alpha) Tune(o *core.Options) {
	o.Exhaustive = true
	o.MaxIterations = 10_000
	o.ProbSelectLocMin = 0.1
	o.ResetLimit = 2
	o.ResetFraction = 0.2
}

// Letters renders a configuration as letter=value assignments, for CLI
// output.
func (a *Alpha) Letters(cfg []int) string {
	var b strings.Builder
	for i, v := range cfg {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%c=%d", 'a'+i, v+1)
	}
	return b.String()
}
