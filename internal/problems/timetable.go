package problems

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/rng"
)

func init() {
	register(builder{
		name:        "timetable",
		description: "Session timetabling: assign each session a time slot from its finite domain with no room or teacher double-booked (first non-permutation benchmark)",
		defaultSize: 60,
		paperSize:   60,
		maxSize:     1024,
		build:       func(n int) (core.Problem, error) { return NewTimetable(n, nil) },
		buildParams: func(n int, params map[string]int) (core.Problem, error) { return NewTimetable(n, params) },
	})
}

// Timetable is the repository's first finite-domain benchmark: n
// sessions, each pre-assigned a room and a teacher, must be placed into
// time slots drawn from per-session domains so that no room and no
// teacher hosts two sessions in the same slot — the resource-assignment
// shape of real scheduling traffic, not expressible as a permutation.
//
// The configuration is cfg[i] = slot of session i, a value from
// Domain(i). The cost counts double-bookings: for every resource and
// slot, each occupant beyond the first adds 1. The encoding keeps a
// resource-by-slot occupancy table for O(1) CostIfAssign, a static
// session list per resource for O(sessions-per-resource) delta
// maintenance of the per-session error vector (MaintainedErrorVector),
// and a batched AssignEvaluator that hoists the removal term out of the
// per-value loop.
//
// Instances are generated deterministically from (size, params): a
// hidden conflict-free assignment guarantees solvability whenever the
// room/teacher capacity admits one, every session's domain contains its
// hidden slot, and roughly one session in eight is pinned to a
// singleton domain so the pre-search reduction pass has real
// propagation to do. Parameters ("slots", "rooms", "teachers") override
// the derived defaults; a capacity below sessions-per-slot drops the
// hidden-solution guarantee and widens every domain to all slots, which
// is how the unsatisfiable configurations used by the reduction tests
// are built (e.g. size 3 with rooms=1, slots=2).
type Timetable struct {
	n     int
	slots int
	rooms int
	teach int

	idA []int // idA[i] = resource id of session i's room
	idB []int // idB[i] = resource id of session i's teacher

	resSessions [][]int32       // static: sessions using each resource
	domains     []domain.Domain // sorted per-session slot domains
	reduced     bool            // domains are at the reduction fixpoint: final

	// Per-walker search state: everything above is the model, which
	// Clone shares; only these two are written after construction and
	// reduction.
	occ    []int // occ[res*slots+s] = sessions of resource res in slot s
	errVec []int // errVec[i] = double-bookings session i participates in
}

// timetableParams are the recognized params keys, each with its cap. A
// model grows as sessions × slots (domains, and the reduction's
// matching) plus resources × slots (occupancy): at the size cap, 1024
// sessions in 256 slots build and reduce in about 20 MiB; in 1024 slots
// they would take 80.
var timetableParams = map[string]int{"slots": 256, "rooms": 1024, "teachers": 1024}

// NewTimetable builds an n-session instance. Recognized params:
// "slots", "rooms", "teachers" (each >= 1 and at most its cap in
// timetableParams); unknown keys or out-of-range values return an error
// wrapping ErrBadParams.
func NewTimetable(n int, params map[string]int) (*Timetable, error) {
	if n < 1 {
		return nil, fmt.Errorf("timetable: size must be >= 1, got %d", n)
	}
	for k, v := range params {
		hi, ok := timetableParams[k]
		if !ok {
			return nil, fmt.Errorf("%w: timetable has no parameter %q (known: rooms, slots, teachers)", ErrBadParams, k)
		}
		if v < 1 || v > hi {
			return nil, fmt.Errorf("%w: timetable parameter %q must be in [1, %d], got %d", ErrBadParams, k, hi, v)
		}
	}
	slots := (n + 3) / 4
	if slots < 2 {
		slots = 2
	}
	if v, ok := params["slots"]; ok {
		slots = v
	}
	// Exact default capacity: as many rooms and teachers as co-scheduled
	// sessions, so the hidden solution exists but random assignments
	// rarely do — the search has real work.
	perSlot := (n + slots - 1) / slots
	rooms := perSlot
	if v, ok := params["rooms"]; ok {
		rooms = v
	}
	teach := perSlot
	if v, ok := params["teachers"]; ok {
		teach = v
	}

	t := &Timetable{
		n:           n,
		slots:       slots,
		rooms:       rooms,
		teach:       teach,
		idA:         make([]int, n),
		idB:         make([]int, n),
		occ:         make([]int, (rooms+teach)*slots),
		resSessions: make([][]int32, rooms+teach),
		domains:     make([]domain.Domain, n),
		errVec:      make([]int, n),
	}

	// Deterministic generation: the instance depends only on the
	// (size, slots, rooms, teachers) tuple.
	seed := uint64(n)*0x9e3779b97f4a7c15 ^ uint64(slots)*0x85ebca6b ^
		uint64(rooms)*0xc2b2ae35 ^ uint64(teach)*0x27d4eb2f
	r := rng.New(seed ^ 0x74696d6574616265)

	// feasible: the round-robin hidden solution (session i in slot i %
	// slots) can give every co-scheduled session a distinct room and
	// teacher.
	feasible := rooms >= perSlot && teach >= perSlot
	// Every domain is a window of one array: a first pass counts the
	// values, a second replays the same draws from a copy of the
	// generator's state and stores them.
	replay := *r
	all := make([]int, t.drawDomains(r, feasible, nil))
	t.drawDomains(&replay, feasible, all)

	// Every resource's session list is a window of one array too: a
	// session is in exactly one room's list and one teacher's.
	counts := make([]int, rooms+teach)
	for i := 0; i < n; i++ {
		s, a := i%slots, i/slots
		t.idA[i] = a % rooms
		t.idB[i] = rooms + (a+s)%teach
		counts[t.idA[i]]++
		counts[t.idB[i]]++
	}
	sessions := make([]int32, 2*n)
	off := 0
	for res, c := range counts {
		t.resSessions[res] = sessions[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		t.resSessions[t.idA[i]] = append(t.resSessions[t.idA[i]], int32(i))
		t.resSessions[t.idB[i]] = append(t.resSessions[t.idB[i]], int32(i))
	}
	return t, nil
}

// drawDomains draws every session's slot domain off r, in session
// order: with feasible capacity, the hidden slot plus a random half of
// the others, and one session in eight pinned to a singleton; with
// over-committed capacity, every slot — the shape the reduction pass
// exists to reject. With all nil it only counts the values; otherwise
// all has room for exactly that many, and each domain becomes a window
// of it whose capacity ends where the next begins. Either way it
// returns the count.
func (t *Timetable) drawDomains(r *rng.Rand, feasible bool, all []int) int {
	k := 0
	put := func(v int) {
		if all != nil {
			all[k] = v
		}
		k++
	}
	for i := 0; i < t.n; i++ {
		start, s := k, i%t.slots
		switch {
		case !feasible:
			for v := 0; v < t.slots; v++ {
				put(v)
			}
		case r.Intn(8) == 0:
			put(s)
		default:
			for v := 0; v < t.slots; v++ {
				if v == s || r.Intn(2) == 0 {
					put(v)
				}
			}
		}
		if all != nil {
			t.domains[i] = all[start:k:k]
		}
	}
	return k
}

var (
	_ core.FDProblem             = (*Timetable)(nil)
	_ core.AssignExecutor        = (*Timetable)(nil)
	_ core.AssignEvaluator       = (*Timetable)(nil)
	_ core.DomainReducer         = (*Timetable)(nil)
	_ core.Cloner                = (*Timetable)(nil)
	_ core.SwapExecutor          = (*Timetable)(nil)
	_ core.MaintainedErrorVector = (*Timetable)(nil)
)

// Size implements core.Problem.
func (t *Timetable) Size() int { return t.n }

// Domain implements core.FDProblem.
func (t *Timetable) Domain(i int) []int { return t.domains[i] }

// ReduceDomains implements core.DomainReducer: each resource's sessions
// form an all-different group over their slot domains (a resource hosts
// at most one session per slot), so singleton propagation narrows
// neighbours of pinned sessions and the pigeonhole check proves
// over-committed resources unsatisfiable before any iteration runs.
// The fixpoint is reached once per model: on an instance already
// reduced (a cached model, or a clone of one) this is a no-op.
func (t *Timetable) ReduceDomains() error {
	if t.reduced {
		return nil
	}
	// Each resource's session list is its group, as it stands: the
	// group list is all a reduction allocates.
	groups := make([]domain.Distinct, 0, len(t.resSessions))
	for _, sessions := range t.resSessions {
		if len(sessions) >= 2 {
			groups = append(groups, domain.Distinct{Vars: sessions})
		}
	}
	if err := domain.Fixpoint(t.domains, groups); err != nil {
		return fmt.Errorf("timetable: %w", err)
	}
	t.reduced = true
	return nil
}

// Clone implements core.Cloner: an unused instance of the same model.
// It shares everything a search only reads — ids, resSessions and the
// reduced domains — and allocates its own occ and errVec, the only
// state a search writes, so a clone may be taken while the original
// (or another clone) is searching. Domains still to be reduced are
// copied instead: ReduceDomains narrows them in place.
func (t *Timetable) Clone() core.Problem {
	c := *t
	c.occ = make([]int, (t.rooms+t.teach)*t.slots)
	c.errVec = make([]int, t.n)
	if !t.reduced {
		c.domains = make([]domain.Domain, t.n)
		for i, d := range t.domains {
			c.domains[i] = d.Clone()
		}
	}
	return &c
}

// ModelBytes implements core.Cloner: the bytes of the ids, session
// lists and domains its clones share, and of its own occ and errVec.
func (t *Timetable) ModelBytes() int64 {
	const word, header = 8, 24 // an int, and a slice header
	b := word * (cap(t.idA) + cap(t.idB) + cap(t.occ) + cap(t.errVec))
	b += header * (len(t.resSessions) + len(t.domains))
	for _, s := range t.resSessions {
		b += 4 * cap(s)
	}
	for _, d := range t.domains {
		b += word * cap(d)
	}
	return int64(b)
}

// Cost implements core.Problem: the number of double-bookings. It
// rebuilds the occupancy table and the error vector from scratch.
func (t *Timetable) Cost(cfg []int) int {
	clear(t.occ)
	S := t.slots
	for i, s := range cfg {
		t.occ[t.idA[i]*S+s]++
		t.occ[t.idB[i]*S+s]++
	}
	cost := 0
	for _, o := range t.occ {
		if o > 1 {
			cost += o - 1
		}
	}
	for i, s := range cfg {
		t.errVec[i] = (t.occ[t.idA[i]*S+s] - 1) + (t.occ[t.idB[i]*S+s] - 1)
	}
	return cost
}

// CostOnVariable implements core.Problem: the occupancy excess of the
// session's room and teacher in its slot.
func (t *Timetable) CostOnVariable(cfg []int, i int) int {
	s := cfg[i]
	return (t.occ[t.idA[i]*t.slots+s] - 1) + (t.occ[t.idB[i]*t.slots+s] - 1)
}

// CostIfAssign implements core.FDProblem with an O(1) delta: moving
// session i out of its slot removes up to two double-bookings, landing
// in v adds one per already-occupied resource.
func (t *Timetable) CostIfAssign(cfg []int, cost, i, v int) int {
	cur := cfg[i]
	if v == cur {
		return cost
	}
	a, b := t.idA[i]*t.slots, t.idB[i]*t.slots
	if t.occ[a+cur] >= 2 {
		cost--
	}
	if t.occ[b+cur] >= 2 {
		cost--
	}
	if t.occ[a+v] >= 1 {
		cost++
	}
	if t.occ[b+v] >= 1 {
		cost++
	}
	return cost
}

// CostsIfAssignAll implements core.AssignEvaluator: the removal term of
// leaving the current slot is hoisted out of the per-value loop.
func (t *Timetable) CostsIfAssignAll(cfg []int, cost, i int, out []int) {
	cur := cfg[i]
	a, b := t.idA[i]*t.slots, t.idB[i]*t.slots
	base := cost
	if t.occ[a+cur] >= 2 {
		base--
	}
	if t.occ[b+cur] >= 2 {
		base--
	}
	for k, v := range t.domains[i] {
		if v == cur {
			out[k] = cost
			continue
		}
		c := base
		if t.occ[a+v] >= 1 {
			c++
		}
		if t.occ[b+v] >= 1 {
			c++
		}
		out[k] = c
	}
}

// CostIfSwap implements core.Problem honestly (harnesses and exchange
// probes evaluate swap perturbations on any encoding): both sessions
// trade slots, via temporary occupancy mutations that are rolled back.
func (t *Timetable) CostIfSwap(cfg []int, cost, i, j int) int {
	si, sj := cfg[i], cfg[j]
	if i == j || si == sj {
		return cost
	}
	ai, bi := t.idA[i]*t.slots, t.idB[i]*t.slots
	aj, bj := t.idA[j]*t.slots, t.idB[j]*t.slots
	// Remove session i from si, session j from sj...
	for _, idx := range [4]int{ai + si, bi + si, aj + sj, bj + sj} {
		if t.occ[idx] >= 2 {
			cost--
		}
		t.occ[idx]--
	}
	// ...and add them back with traded slots.
	for _, idx := range [4]int{ai + sj, bi + sj, aj + si, bj + si} {
		if t.occ[idx] >= 1 {
			cost++
		}
		t.occ[idx]++
	}
	// Roll back: CostIfSwap must not change observable state.
	for _, idx := range [4]int{ai + sj, bi + sj, aj + si, bj + si} {
		t.occ[idx]--
	}
	for _, idx := range [4]int{ai + si, bi + si, aj + sj, bj + sj} {
		t.occ[idx]++
	}
	return cost
}

// ExecutedAssign implements core.AssignExecutor: cfg[i] already holds
// the new slot. The occupancy cells move, and only the sessions sharing
// a resource with i in the vacated or entered slot have their error
// entries adjusted; session i's own entry is recomputed exactly.
func (t *Timetable) ExecutedAssign(cfg []int, i, old int) {
	v := cfg[i]
	if v == old {
		return
	}
	S := t.slots
	for _, res := range [2]int{t.idA[i], t.idB[i]} {
		t.occ[res*S+old]--
		t.occ[res*S+v]++
		for _, j32 := range t.resSessions[res] {
			j := int(j32)
			if j == i {
				continue
			}
			if s := cfg[j]; s == old {
				t.errVec[j]--
			} else if s == v {
				t.errVec[j]++
			}
		}
	}
	t.errVec[i] = (t.occ[t.idA[i]*S+v] - 1) + (t.occ[t.idB[i]*S+v] - 1)
}

// ExecutedSwap implements core.SwapExecutor for harness use (the FD
// engine never swaps): a swap touches up to four resource/slot cells in
// a pattern the assign delta does not cover, so the incremental state
// is simply rebuilt.
func (t *Timetable) ExecutedSwap(cfg []int, i, j int) {
	t.Cost(cfg)
}

// LiveErrors implements core.MaintainedErrorVector: the vector is kept
// current by Cost and ExecutedAssign.
func (t *Timetable) LiveErrors(cfg []int) []int { return t.errVec }

// ErrorsOnVariables implements core.ErrorVector.
func (t *Timetable) ErrorsOnVariables(cfg []int, out []int) {
	copy(out, t.errVec)
}

// Verify reports whether cfg is a conflict-free timetable with every
// session inside its domain, checked independently of the incremental
// machinery.
func (t *Timetable) Verify(cfg []int) bool {
	if len(cfg) != t.n {
		return false
	}
	for i, s := range cfg {
		in := false
		for _, v := range t.domains[i] {
			if v == s {
				in = true
				break
			}
		}
		if !in {
			return false
		}
	}
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			if cfg[i] != cfg[j] {
				continue
			}
			if t.idA[i] == t.idA[j] || t.idB[i] == t.idB[j] {
				return false
			}
		}
	}
	return true
}
