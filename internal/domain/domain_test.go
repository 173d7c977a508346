package domain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestDomainBasics(t *testing.T) {
	d := New(5, 1, 3, 3, 1)
	want := []int{1, 3, 5}
	if len(d) != len(want) {
		t.Fatalf("New deduplication failed: %v", d)
	}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("New = %v, want %v", []int(d), want)
		}
	}
	if !d.Contains(3) || d.Contains(2) {
		t.Errorf("Contains wrong on %v", d)
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Errorf("Min/Max = %d/%d", d.Min(), d.Max())
	}
	d, removed := d.Remove(3)
	if !removed || d.Contains(3) || len(d) != 2 {
		t.Errorf("Remove(3) = %v, removed=%v", d, removed)
	}
	if _, removed := d.Remove(42); removed {
		t.Error("Remove of absent value reported removal")
	}
	r := Range(2, 4)
	if len(r) != 3 || r[0] != 2 || r[2] != 4 {
		t.Errorf("Range(2,4) = %v", r)
	}
	if len(Range(4, 2)) != 0 {
		t.Error("inverted Range not empty")
	}
}

func TestFixpointEmptyDomain(t *testing.T) {
	doms := []Domain{Range(0, 2), nil}
	err := Fixpoint[Propagator](doms, nil)
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("empty domain not reported unsatisfiable: %v", err)
	}
}

func TestLinearReduces(t *testing.T) {
	// x + y == 3, x in [0,5], y in [0,1]: x must be in [2,3].
	doms := []Domain{Range(0, 5), Range(0, 1)}
	err := Fixpoint(doms, []Propagator{Linear{Vars: []int{0, 1}, Coeffs: []int{1, 1}, Target: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doms[0]) != 2 || doms[0][0] != 2 || doms[0][1] != 3 {
		t.Errorf("x domain = %v, want [2 3]", doms[0])
	}
	if len(doms[1]) != 2 {
		t.Errorf("y domain = %v, want [0 1]", doms[1])
	}
}

func TestLinearUnsatisfiable(t *testing.T) {
	// 2x == 7 has no integer solution in [0,3].
	doms := []Domain{Range(0, 3)}
	err := Fixpoint(doms, []Propagator{Linear{Vars: []int{0}, Coeffs: []int{2}, Target: 7}})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("want ErrUnsatisfiable, got %v", err)
	}
}

func TestDistinctSingletonPropagation(t *testing.T) {
	// x fixed to 1 removes 1 from y and z; z collapses to 2, which then
	// leaves y = {0} at the fixpoint.
	doms := []Domain{New(1), New(0, 1, 2), New(1, 2)}
	err := Fixpoint(doms, []Propagator{Distinct{Vars: []int32{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doms[2]) != 1 || doms[2][0] != 2 {
		t.Errorf("z domain = %v, want [2]", doms[2])
	}
	if len(doms[1]) != 1 || doms[1][0] != 0 {
		t.Errorf("y domain = %v, want [0]", doms[1])
	}
}

func TestDistinctCapacity(t *testing.T) {
	// Three variables over two values: pigeonhole unsatisfiable.
	doms := []Domain{Range(0, 1), Range(0, 1), Range(0, 1)}
	err := Fixpoint(doms, []Propagator{Distinct{Vars: []int32{0, 1, 2}}})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("want ErrUnsatisfiable, got %v", err)
	}
}

func TestDistinctDuplicateVars(t *testing.T) {
	// A duplicated entry must not make x "conflict with itself".
	doms := []Domain{New(1), Range(0, 2)}
	err := Fixpoint(doms, []Propagator{Distinct{Vars: []int32{0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doms[0]) != 1 {
		t.Errorf("x domain = %v, want [1]", doms[0])
	}
}

// fuzzModel is a small random FD model decoded from fuzz bytes: a few
// variables with small domains, linear equations and one optional
// all-different group.
type fuzzModel struct {
	doms     []Domain
	linear   []Linear
	distinct []Distinct
}

// decodeFuzzModel derives a model deterministically from data. It
// returns ok=false for inputs too short to describe one.
func decodeFuzzModel(data []byte) (fuzzModel, bool) {
	if len(data) < 4 {
		return fuzzModel{}, false
	}
	next := func() byte {
		b := data[0]
		data = data[1:]
		return b
	}
	rem := func() int { return len(data) }

	n := int(next())%4 + 1 // 1..4 variables
	m := fuzzModel{}
	for i := 0; i < n; i++ {
		if rem() == 0 {
			return fuzzModel{}, false
		}
		// Each variable's domain is a non-empty subset of [0,5] from a
		// 6-bit mask; an empty mask selects {bits % 6}.
		bits := next()
		var d Domain
		for v := 0; v < 6; v++ {
			if bits&(1<<v) != 0 {
				d = append(d, v)
			}
		}
		if len(d) == 0 {
			d = Domain{int(bits) % 6}
		}
		m.doms = append(m.doms, d)
	}
	if rem() == 0 {
		return fuzzModel{}, false
	}
	ncons := int(next()) % 3 // 0..2 linear equations
	for c := 0; c < ncons; c++ {
		var l Linear
		for i := 0; i < n; i++ {
			if rem() == 0 {
				return fuzzModel{}, false
			}
			coef := int(next())%5 - 2 // -2..2, 0 drops the term
			if coef == 0 {
				continue
			}
			l.Vars = append(l.Vars, i)
			l.Coeffs = append(l.Coeffs, coef)
		}
		if len(l.Vars) == 0 {
			continue
		}
		if rem() == 0 {
			return fuzzModel{}, false
		}
		l.Target = int(next())%21 - 10 // -10..10
		m.linear = append(m.linear, l)
	}
	if rem() > 0 && next()%2 == 1 {
		// One all-different group over a prefix of the variables.
		if rem() == 0 {
			return fuzzModel{}, false
		}
		k := int(next())%n + 1
		g := Distinct{}
		for i := 0; i < k; i++ {
			g.Vars = append(g.Vars, int32(i))
		}
		m.distinct = append(m.distinct, g)
	}
	if rem() > 1 && next()%2 == 1 {
		// A second group with arbitrary members, repeats included.
		g := Distinct{}
		for k := int(next()) % 6; k > 0 && rem() > 0; k-- {
			g.Vars = append(g.Vars, int32(int(next())%n))
		}
		m.distinct = append(m.distinct, g)
	}
	if rem() > 0 {
		// Move the values out of [0,5]: below zero, across the 64 mark,
		// or so far apart that a group's values no longer fit one word.
		shift := fuzzShifts[int(next())%len(fuzzShifts)]
		for _, d := range m.doms {
			for k := range d {
				d[k] = d[k]*shift.scale + shift.offset
			}
		}
	}
	if rem() > 1 && next()%8 == 0 {
		m.doms[int(next())%n] = nil // empty on entry
	}
	return m, true
}

// fuzzShifts are the value transforms decodeFuzzModel applies: identity,
// negative, straddling 64, spreads of exactly 63 and exactly 64 (the
// last that fits one word and the first that does not), and wider.
var fuzzShifts = []struct{ scale, offset int }{{1, 0}, {1, -3}, {1, 61}, {9, -5}, {32, 3}, {40, -70}, {1 << 40, 0}}

// satisfies checks an assignment exactly (no relaxation).
func (m fuzzModel) satisfies(asn []int) bool {
	for _, l := range m.linear {
		sum := 0
		for k, vi := range l.Vars {
			sum += l.Coeffs[k] * asn[vi]
		}
		if sum != l.Target {
			return false
		}
	}
	for _, g := range m.distinct {
		for a := 0; a < len(g.Vars); a++ {
			for b := a + 1; b < len(g.Vars); b++ {
				if asn[g.Vars[a]] != asn[g.Vars[b]] {
					continue
				}
				if g.Vars[a] != g.Vars[b] {
					return false
				}
			}
		}
	}
	return true
}

// forEachAssignment enumerates the cross product of doms.
func forEachAssignment(doms []Domain, fn func(asn []int)) {
	asn := make([]int, len(doms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(doms) {
			fn(asn)
			return
		}
		for _, v := range doms[i] {
			asn[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// FuzzReduceDomain cross-checks the reduction pass against brute force
// on small random models: reduction must never remove a value any
// satisfying assignment uses (soundness), and an ErrUnsatisfiable
// verdict must be a proof — brute force must agree no solution exists.
func FuzzReduceDomain(f *testing.F) {
	f.Add([]byte{2, 0x3f, 0x07, 1, 1, 2, 5, 1, 2})
	f.Add([]byte{3, 0x03, 0x03, 0x03, 0, 1, 3})
	f.Add([]byte{1, 0x0f, 1, 2, 7, 0})
	f.Add([]byte{4, 0x3f, 0x1f, 0x0f, 0x07, 2, 1, 1, 1, 1, 4, 2, 2, 2, 2, 0, 1, 3})
	// A group with repeated members over values 2^40 apart, and a
	// domain empty on entry among values around 64.
	f.Add([]byte{2, 0x01, 0x03, 0x02, 0, 1, 2, 1, 4, 0, 0, 1, 2, 6, 1})
	f.Add([]byte{1, 0x07, 0x07, 0, 1, 1, 1, 2, 1, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeFuzzModel(data)
		if !ok {
			t.Skip()
		}
		// Brute-force ground truth over the ORIGINAL domains.
		var solutions [][]int
		forEachAssignment(m.doms, func(asn []int) {
			if m.satisfies(asn) {
				solutions = append(solutions, append([]int(nil), asn...))
			}
		})

		checkDistinctAgainstReference(t, m.doms, m.distinct)

		reduced := cloneDomains(m.doms)
		props := make([]Propagator, 0, len(m.linear)+len(m.distinct))
		for _, l := range m.linear {
			props = append(props, l)
		}
		for _, g := range m.distinct {
			props = append(props, g)
		}
		err := Fixpoint(reduced, props)

		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("reduction failed with a non-unsat error: %v", err)
			}
			if len(solutions) > 0 {
				t.Fatalf("reduction claimed unsatisfiable but %v solves the model (e.g. %v)", solutions[0], m)
			}
			return
		}
		for _, sol := range solutions {
			for i, v := range sol {
				if !reduced[i].Contains(v) {
					t.Fatalf("reduction removed value %d from variable %d, used by solution %v", v, i, sol)
				}
			}
		}
	})
}

// refDistinctReduce is Distinct.Reduce as it stood before it lost its
// per-call maps and dedup slice (commit 6ae8a7d), kept as the reference
// the allocation-free one must agree with call for call.
func refDistinctReduce(c Distinct, doms []Domain) (bool, error) {
	group := make([]int32, 0, len(c.Vars))
	seen := make(map[int32]bool, len(c.Vars))
	for _, vi := range c.Vars {
		if !seen[vi] {
			seen[vi] = true
			group = append(group, vi)
		}
	}
	union := make(map[int]struct{})
	for _, vi := range group {
		if len(doms[vi]) == 0 {
			return false, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
		}
		for _, v := range doms[vi] {
			union[v] = struct{}{}
		}
	}
	if len(group) > len(union) {
		return false, fmt.Errorf("all-different over %d variables with only %d values: %w", len(group), len(union), ErrUnsatisfiable)
	}
	changed := false
	for _, vi := range group {
		if len(doms[vi]) != 1 {
			continue
		}
		v := doms[vi][0]
		for _, vj := range group {
			if vj == vi {
				continue
			}
			d, removed := doms[vj].Remove(v)
			if !removed {
				continue
			}
			changed = true
			doms[vj] = d
			if len(d) == 0 {
				return true, fmt.Errorf("variable %d has an empty domain: %w", vj, ErrUnsatisfiable)
			}
		}
	}
	return changed, nil
}

// refDistinct runs refDistinctReduce as a Propagator, so the reference
// fixpoint is Fixpoint's own loop over the reference propagator.
type refDistinct Distinct

func (c refDistinct) Reduce(doms []Domain) (bool, error) { return refDistinctReduce(Distinct(c), doms) }

func cloneDomains(doms []Domain) []Domain {
	out := make([]Domain, len(doms))
	for i, d := range doms {
		out[i] = d.Clone()
	}
	return out
}

// checkDistinctAgainstReference drives Distinct.Reduce and the reference
// side by side from the same domains: every single call must agree on
// the domains it leaves, on changed and on the error (same text, so
// same ErrUnsatisfiable verdict), and so must the fixpoint of all groups.
func checkDistinctAgainstReference(t *testing.T, doms []Domain, groups []Distinct) {
	t.Helper()
	agree := func(what string, got, want []Domain, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrUnsatisfiable) != errors.Is(wantErr, ErrUnsatisfiable) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s on %v %v: err = %v, reference %v", what, doms, groups, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %v %v: domains %v, reference %v", what, doms, groups, got, want)
		}
	}
	for _, g := range groups {
		got, want := cloneDomains(doms), cloneDomains(doms)
		// Call after call until quiescence: the later calls see the
		// singleton chains the earlier ones made.
		for {
			ch, err := g.Reduce(got)
			refCh, refErr := refDistinctReduce(g, want)
			if ch != refCh {
				t.Fatalf("Reduce on %v %v: changed = %v, reference %v", doms, g, ch, refCh)
			}
			agree("Reduce", got, want, err, refErr)
			if err != nil || !ch {
				break
			}
		}
	}
	refs := make([]refDistinct, len(groups))
	for i, g := range groups {
		refs[i] = refDistinct(g)
	}
	got, want := cloneDomains(doms), cloneDomains(doms)
	err, refErr := Fixpoint(got, groups), Fixpoint(want, refs)
	agree("Fixpoint", got, want, err, refErr)
}

// TestDistinctMatchesReference is the differential test run on every
// `go test`: seeded random groups over random domains, built to hit
// each case the rewrite could get wrong — repeated entries in Vars,
// values below zero, at and above 64, spreads wider than a word (the
// sorting branch of unionSize), singleton chains, pigeonhole-
// unsatisfiable groups and domains empty on entry.
func TestDistinctMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var unsat, wide, dups, empty int
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(7)
		shift := fuzzShifts[r.Intn(len(fuzzShifts))]
		width := 1 + r.Intn(8) // few values: singletons and pigeonholes are common
		doms := make([]Domain, n)
		for i := range doms {
			var vals []int
			for k := 1 + r.Intn(3); k > 0; k-- {
				vals = append(vals, r.Intn(width)*shift.scale+shift.offset)
			}
			doms[i] = New(vals...)
			if r.Intn(40) == 0 {
				doms[i] = nil
				empty++
			}
		}
		groups := make([]Distinct, 1+r.Intn(3))
		for gi := range groups {
			for k := r.Intn(n + 2); k > 0; k-- {
				groups[gi].Vars = append(groups[gi].Vars, int32(r.Intn(n)))
			}
			vars := slices.Clone(groups[gi].Vars)
			slices.Sort(vars)
			if len(slices.Compact(vars)) < len(groups[gi].Vars) {
				dups++
			}
		}
		if shift.scale*(width-1) >= 64 {
			wide++
		}
		if Fixpoint(cloneDomains(doms), groups) != nil {
			unsat++
		}
		checkDistinctAgainstReference(t, doms, groups)
	}
	// The generator must keep reaching every class, or the test above
	// proves less than it says.
	if unsat < 200 || wide < 200 || dups < 200 || empty < 200 {
		t.Fatalf("generator coverage: unsat %d, wide %d, dups %d, empty-on-entry %d trials of 5000", unsat, wide, dups, empty)
	}
}
