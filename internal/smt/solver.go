package smt

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Status is the outcome of a satisfiability check.
type Status int

const (
	// Unknown means the solver exhausted its search budget.
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means no model exists.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Result carries the outcome of Check: the status and, when Sat, a model
// assigning every declared variable a value within its bounds.
type Result struct {
	Status Status
	Model  map[Var]int64
	// Err explains an Unknown status: ErrBudget when the node/propagation
	// budget or the per-Check deadline ran out, the context's error when the
	// Check was abandoned via SetContext. nil for Sat and Unsat.
	Err error
}

// Stats counts solver work, cumulative over the solver's lifetime.
type Stats struct {
	Checks       uint64 // Check / CheckWith invocations
	Nodes        uint64 // search-tree nodes explored
	Propagations uint64 // individual bound tightenings
	Conflicts    uint64 // dead ends reached during search
	OptQueries   uint64 // Minimize/Maximize invocations
	BaseBuilds   uint64 // warm-start base stores built (≤ one per epoch)
	WarmStarts   uint64 // Checks served from a memoized base store
	BudgetStops  uint64 // Checks that returned Unknown (budget, deadline, or cancellation)
}

// ErrBudget is carried by an Unknown Result whose Check exceeded its node or
// propagation budget or its per-Check deadline (Solver.MaxNodes, MaxProps,
// Timeout). It is the signal a serving layer maps to "overloaded, retry"
// rather than "infeasible".
var ErrBudget = errors.New("smt: search budget exhausted")

// Solver is an incremental SMT solver for QF-LIA over finite-domain integer
// variables. The zero value is not usable; create with NewSolver.
//
// Solver is not safe for concurrent use; create one per goroutine.
type Solver struct {
	names []string
	lo    []int64
	hi    []int64

	asserted []Formula
	compiled []compiledAssert // parallel to asserted: lowered once at Assert
	frames   []int            // assertion-stack frame marks for Push/Pop

	// epoch identifies the solver's logical state: two moments with equal
	// epochs have identical declared variables and identical assertion
	// stacks. Anything memoized against an epoch (the warm-start base
	// store below, callers' oracle caches) is valid exactly when the
	// epoch matches again. Fresh epochs come from epochSrc; a Pop back to
	// a previous stack restores that stack's old epoch.
	epoch    uint64
	epochSrc uint64 // monotone source of never-reused fresh epoch values
	// gen guards epoch restoration: it advances when the variable set
	// changes (NewVar), so a recorded epoch is only restored if the
	// variables are still exactly those it was recorded under.
	gen    uint64
	epoch0 uint64 // epoch of the empty assertion stack, valid while gen0 == gen
	gen0   uint64
	// posEpoch[i] and posGen[i] record the epoch right after position i was
	// asserted (equivalently: the epoch of the stack prefix of length i+1)
	// and the variable generation it was recorded under. Pop uses them to
	// restore the shortened stack's epoch, re-recording at the current
	// generation when the old one no longer applies.
	posEpoch []uint64
	posGen   []uint64

	base *baseStore // memoized propagated store for the current epoch

	// MaxNodes bounds the search-tree size per Check; Check returns
	// Unknown when exceeded. The default is generous for LeJIT-scale
	// problems (tens of variables, hundreds of constraints).
	MaxNodes uint64
	// MaxProps bounds the propagation steps (individual bound tightenings)
	// one Check may perform; 0 means unlimited. Together with MaxNodes it
	// forms the decision/propagation step budget: a pathological rule set
	// whose cost is propagation-heavy rather than branch-heavy still stops.
	MaxProps uint64
	// Timeout bounds one Check's wall-clock time; 0 means none. The clock is
	// polled every budgetPollMask+1 nodes, so very small timeouts resolve at
	// node granularity, not instantly.
	Timeout time.Duration

	// ctx, when set via SetContext, is polled during search: cancellation or
	// deadline expiry abandons the Check mid-search with the context's error.
	ctx context.Context

	stats Stats

	// Worklist-propagation scratch, reused across Checks.
	workQ   []int32
	inQ     []bool
	chgVars []Var
}

// compiledAssert is an asserted formula lowered once at Assert time: NNF
// applied, atoms normalized into linear constraints, disjunctions collected.
// unsat marks a formula with a trivially-false conjunct.
type compiledAssert struct {
	cons  []lincon
	disj  []orF
	unsat bool
}

// compileAssert lowers f for the propagation engine. The decomposition
// mirrors the search's pending-formula loop, but runs once per Assert
// instead of once per Check.
func compileAssert(f Formula) compiledAssert {
	var ca compiledAssert
	pending := []Formula{nnf(f)}
	for len(pending) > 0 {
		g := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		switch h := g.(type) {
		case boolF:
			if !h.v {
				return compiledAssert{unsat: true}
			}
		case atomF:
			c, kind := normalizeAtom(h.a)
			switch kind {
			case normTrue:
			case normFalse:
				return compiledAssert{unsat: true}
			case normCon:
				ca.cons = append(ca.cons, c)
			case normSplit:
				lt := atomF{Atom{Expr: h.a.Expr, Op: OpLT}}
				gt := atomF{Atom{Expr: h.a.Expr, Op: OpGT}}
				ca.disj = append(ca.disj, orF{fs: []Formula{lt, gt}})
			}
		case andF:
			pending = append(pending, h.fs...)
		case orF:
			ca.disj = append(ca.disj, h)
		case notF:
			// nnf leaves no notF nodes; defensive.
			pending = append(pending, nnf(h))
		}
	}
	return ca
}

// baseStore memoizes the assertion-stack-dependent part of a Check: the
// union of all compiled assertions plus the root domains propagated once to
// fixpoint. CheckWith warm-starts every probe of the same epoch from here
// instead of recompiling and re-propagating the whole stack.
type baseStore struct {
	epoch    uint64
	conflict bool // the assertions alone are Unsat
	dom      *domains
	cons     []lincon
	disj     []orF
	// watch[v] lists the indices of cons containing variable v, so a probe
	// that tightens v wakes only the constraints that can react.
	watch [][]int32
	// disjTaint[v] marks variables connected to a live disjunction (nil when
	// no disjunction survived simplification); see interval.go.
	disjTaint []bool
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{MaxNodes: 1 << 20}
}

// NewVar declares an integer variable with inclusive bounds [lo, hi].
// It panics if lo > hi: every variable must have a non-empty finite domain
// (see DESIGN.md §4 — bounded counters make the solver complete).
func (s *Solver) NewVar(name string, lo, hi int64) Var {
	if lo > hi {
		panic(fmt.Sprintf("smt: empty domain for %q: [%d,%d]", name, lo, hi))
	}
	v := Var(len(s.names))
	s.names = append(s.names, name)
	s.lo = append(s.lo, lo)
	s.hi = append(s.hi, hi)
	s.gen++
	s.bumpEpoch()
	// Re-record the current stack's epoch under the new generation, so a
	// Pop back to this stack restores it.
	if n := len(s.asserted); n > 0 {
		s.posEpoch[n-1], s.posGen[n-1] = s.epoch, s.gen
	} else {
		s.epoch0, s.gen0 = s.epoch, s.gen
	}
	return v
}

// bumpEpoch moves the solver to a fresh, never-before-issued epoch.
func (s *Solver) bumpEpoch() {
	s.epochSrc++
	s.epoch = s.epochSrc
}

// NumVars reports the number of declared variables.
func (s *Solver) NumVars() int { return len(s.names) }

// VarName returns the name v was declared with.
func (s *Solver) VarName(v Var) string { return s.names[v] }

// Bounds returns the declared domain of v.
func (s *Solver) Bounds(v Var) (lo, hi int64) { return s.lo[v], s.hi[v] }

// Assert adds f to the current assertion frame. The formula is compiled
// (NNF + atom normalization) once, here, not on every Check.
func (s *Solver) Assert(f Formula) {
	s.asserted = append(s.asserted, f)
	s.compiled = append(s.compiled, compileAssert(f))
	s.bumpEpoch()
	s.posEpoch = append(s.posEpoch, s.epoch)
	s.posGen = append(s.posGen, s.gen)
}

// Push opens a new assertion frame.
func (s *Solver) Push() {
	s.frames = append(s.frames, len(s.asserted))
}

// Pop discards every assertion added since the matching Push.
// It panics if no frame is open.
func (s *Solver) Pop() {
	if len(s.frames) == 0 {
		panic("smt: Pop without Push")
	}
	mark := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.asserted = s.asserted[:mark]
	s.compiled = s.compiled[:mark]
	s.posEpoch = s.posEpoch[:mark]
	s.posGen = s.posGen[:mark]
	s.restorePrefixEpoch(mark)
}

// restorePrefixEpoch sets the epoch for the stack prefix of length mark:
// the recorded epoch when the variable set is unchanged since it was
// recorded, a fresh one (re-recorded for next time) otherwise.
func (s *Solver) restorePrefixEpoch(mark int) {
	if mark == 0 {
		if s.gen0 == s.gen {
			s.epoch = s.epoch0
		} else {
			s.bumpEpoch()
			s.epoch0, s.gen0 = s.epoch, s.gen
		}
		return
	}
	if s.posGen[mark-1] == s.gen {
		s.epoch = s.posEpoch[mark-1]
	} else {
		s.bumpEpoch()
		s.posEpoch[mark-1], s.posGen[mark-1] = s.epoch, s.gen
	}
}

// SetContext attaches ctx to subsequent Checks: once it is cancelled or its
// deadline passes, an in-flight Check stops mid-search and returns Unknown
// with the context's error in Result.Err. Pass nil to detach. This is how a
// serving layer's per-request deadline interrupts solver work between — and
// within — token steps.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

// Epoch identifies the solver's logical state: equal epochs mean identical
// declared variables and identical assertion stacks. It changes on NewVar,
// Assert, and Pop, and is stable across Check/CheckWith — but it is not
// monotone: a Pop back to a previous stack restores that stack's epoch.
// Callers may key memoized query results by it (LeJIT's slot oracle keys
// its witness model by it); restoration deliberately revalidates such
// memos.
func (s *Solver) Epoch() uint64 { return s.epoch }

// NumAssertions reports the number of currently active assertions.
func (s *Solver) NumAssertions() int { return len(s.asserted) }

// Stats returns a copy of the cumulative statistics.
func (s *Solver) Stats() Stats { return s.stats }

// Check decides satisfiability of the conjunction of all active assertions.
func (s *Solver) Check() Result {
	return s.CheckWith()
}

// CheckWith decides satisfiability of the active assertions conjoined with
// extra, without mutating the assertion stack. The assertions themselves are
// not reprocessed: the check warm-starts from the epoch's memoized base
// store and only compiles the extra formulas.
func (s *Solver) CheckWith(extra ...Formula) Result {
	s.stats.Checks++
	if s.ctx != nil {
		// A request already cancelled before this Check does no work at all.
		if err := s.ctx.Err(); err != nil {
			s.stats.BudgetStops++
			return Result{Status: Unknown, Err: err}
		}
	}
	if s.base != nil && s.base.epoch == s.epoch {
		s.stats.WarmStarts++
	}
	base := s.currentBase()
	if base.conflict {
		s.stats.Conflicts++
		return Result{Status: Unsat}
	}
	cons := capCons(base.cons)
	disj := capDisj(base.disj)
	for _, f := range extra {
		ca := compileAssert(f)
		if ca.unsat {
			s.stats.Conflicts++
			return Result{Status: Unsat}
		}
		cons = append(cons, ca.cons...)
		disj = append(disj, ca.disj...)
	}
	st := &searchState{
		dom:     base.dom.clone(),
		solv:    s,
		limit:   s.MaxNodes,
		propsIn: s.stats.Propagations,
	}
	if s.Timeout > 0 {
		st.deadline = time.Now().Add(s.Timeout)
	}
	// The base domains are at fixpoint with the base constraints, so only
	// the extras (and whatever they disturb) need propagating; the search's
	// own first full propagation pass is then redundant and skipped.
	st.watch = base.watch
	st.watchN = len(base.cons)
	if len(cons) > len(base.cons) {
		if !s.propagateWakeup(st.dom, cons, base.watch, len(base.cons), len(base.cons), nil) {
			s.stats.Conflicts++
			return Result{Status: Unsat}
		}
	}
	st.skipProp = true
	status, model := st.search(nil, cons, disj)
	res := Result{Status: status, Model: model}
	if status == Unknown {
		s.stats.BudgetStops++
		res.Err = st.stopErr
		if res.Err == nil {
			res.Err = ErrBudget
		}
	}
	return res
}

// currentBase returns the memoized base store for the current epoch,
// building it on the first use after a mutation. Propagating the asserted
// constraints here is sound for every subsequent probe: bounds propagation
// only removes values that no model of the assertions can take, and extra
// formulas only shrink the model set further. The same monotonicity argument
// covers the disjunction simplification (see interval.go).
func (s *Solver) currentBase() *baseStore {
	if s.base != nil && s.base.epoch == s.epoch {
		return s.base
	}
	s.stats.BaseBuilds++
	b := &baseStore{epoch: s.epoch}
	var nc, nd int
	for i := range s.compiled {
		nc += len(s.compiled[i].cons)
		nd += len(s.compiled[i].disj)
	}
	b.cons = make([]lincon, 0, nc)
	b.disj = make([]orF, 0, nd)
	for i := range s.compiled {
		ca := &s.compiled[i]
		if ca.unsat {
			b.conflict = true
		}
		b.cons = append(b.cons, ca.cons...)
		b.disj = append(b.disj, ca.disj...)
	}
	b.dom = newDomains(s.lo, s.hi)
	if !b.conflict && !propagate(b.dom, b.cons, &s.stats.Propagations) {
		b.conflict = true
	}
	if !b.conflict {
		b.simplifyDisjunctions(s)
	}
	if !b.conflict {
		b.watch = make([][]int32, len(s.lo))
		for i := range b.cons {
			for _, t := range b.cons[i].terms {
				b.watch[t.V] = append(b.watch[t.V], int32(i))
			}
		}
		b.buildTaint(len(s.lo))
	}
	s.base = b
	return b
}

// propagateWakeup runs worklist propagation over cons, assuming d is already
// at fixpoint with respect to cons[:newFrom] except for variables listed in
// dirty (mutated directly by a domain split). Seeds are the new constraints
// cons[newFrom:] plus the watchers of every dirty variable. When a
// constraint tightens a variable, the constraints containing that variable
// are re-queued — via the epoch's watch index for cons[:watchN], by linear
// scan for the (few) constraints added during this Check's search. This
// makes the cost of a node proportional to the constraints it actually
// disturbs instead of the whole assertion stack.
func (s *Solver) propagateWakeup(d *domains, cons []lincon, watch [][]int32, watchN, newFrom int, dirty []Var) bool {
	if cap(s.inQ) < len(cons) {
		s.inQ = make([]bool, len(cons))
	}
	inQ := s.inQ[:len(cons)]
	clear(inQ)
	q := s.workQ[:0]
	enqueueVar := func(v Var) {
		for _, j := range watch[v] {
			if !inQ[j] {
				inQ[j] = true
				q = append(q, j)
			}
		}
		for j := watchN; j < len(cons); j++ {
			if inQ[j] {
				continue
			}
			for _, t := range cons[j].terms {
				if t.V == v {
					inQ[j] = true
					q = append(q, int32(j))
					break
				}
			}
		}
	}
	for _, v := range dirty {
		enqueueVar(v)
	}
	for i := newFrom; i < len(cons); i++ {
		if !inQ[i] {
			inQ[i] = true
			q = append(q, int32(i))
		}
	}
	chg := s.chgVars[:0]
	ok := true
	for head := 0; head < len(q); head++ {
		i := q[head]
		inQ[i] = false
		chg = chg[:0]
		okOne, _ := propagateOne(d, &cons[i], &chg)
		if !okOne {
			ok = false
			break
		}
		s.stats.Propagations += uint64(len(chg))
		for _, v := range chg {
			enqueueVar(v)
		}
	}
	s.workQ, s.chgVars = q[:0], chg[:0]
	return ok
}

// budgetPollMask gates the wall-clock and context polls to every 64th node:
// frequent enough that a stalled Check stops within microseconds of real
// work, rare enough that time.Now never shows up in profiles.
const budgetPollMask = 63

// searchState carries per-Check search bookkeeping shared across branches.
type searchState struct {
	dom   *domains
	solv  *Solver
	nodes uint64
	limit uint64
	// propsIn snapshots cumulative propagations at Check entry; deadline is
	// the per-Check wall-clock cutoff (zero = none). stopErr records why the
	// search gave up, reported as Result.Err alongside Unknown.
	propsIn  uint64
	deadline time.Time
	stopErr  error
	// watch is the epoch's var→constraint index covering cons[:watchN]
	// (the warm-started base); constraints beyond watchN were added during
	// this Check and are found by scan.
	watch  [][]int32
	watchN int
	// skipProp marks the domains already at fixpoint with the constraints
	// handed to the next search call (warm-started probes); consumed once.
	skipProp bool
	// dirtyVar is the variable a domain split just narrowed; the next
	// search call seeds propagation from its watchers. Consumed once.
	dirtyVar Var
	hasDirty bool
}

// overBudget reports why the search must stop, or nil to continue. Node and
// propagation budgets are exact; the deadline and the attached context are
// polled every budgetPollMask+1 nodes, starting at the first node so that an
// already-expired deadline stops even a short search.
func (st *searchState) overBudget() error {
	if st.nodes > st.limit {
		return ErrBudget
	}
	s := st.solv
	if s.MaxProps > 0 && s.stats.Propagations-st.propsIn > s.MaxProps {
		return ErrBudget
	}
	if st.nodes&budgetPollMask == 1 {
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			return ErrBudget
		}
	}
	return nil
}

// search is the DPLL core. pending holds formulas not yet decomposed; cons
// holds normalized linear constraints already in the store; disj holds
// unresolved disjunctions. The domains in st.dom reflect the current branch.
// On Sat it returns a complete model.
func (st *searchState) search(pending []Formula, cons []lincon, disj []orF) (Status, map[Var]int64) {
	st.nodes++
	st.solv.stats.Nodes++
	if err := st.overBudget(); err != nil {
		st.stopErr = err
		return Unknown, nil
	}

	d := st.dom
	consIn := len(cons)

	// Decompose pending formulas into constraints and disjunctions.
	for len(pending) > 0 {
		f := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		switch g := f.(type) {
		case boolF:
			if !g.v {
				st.solv.stats.Conflicts++
				return Unsat, nil
			}
		case atomF:
			c, kind := normalizeAtom(g.a)
			switch kind {
			case normTrue:
			case normFalse:
				st.solv.stats.Conflicts++
				return Unsat, nil
			case normCon:
				cons = append(cons, c)
			case normSplit:
				lt := atomF{Atom{Expr: g.a.Expr, Op: OpLT}}
				gt := atomF{Atom{Expr: g.a.Expr, Op: OpGT}}
				disj = append(disj, orF{fs: []Formula{lt, gt}})
			}
		case andF:
			pending = append(pending, g.fs...)
		case orF:
			disj = append(disj, g)
		case notF:
			// nnf leaves no notF nodes; defensive.
			pending = append(pending, nnf(g))
		}
	}

	// Propagate to fixpoint (unless the caller already did). The incoming
	// domains are at fixpoint with the incoming constraints — the parent
	// node propagated before branching — so only the decomposed additions
	// and the split variable's watchers need waking.
	if st.skipProp {
		st.skipProp = false
	} else {
		var dirty []Var
		var dbuf [1]Var
		if st.hasDirty {
			dbuf[0] = st.dirtyVar
			dirty = dbuf[:]
			st.hasDirty = false
		}
		if len(cons) > consIn || dirty != nil {
			if !st.solv.propagateWakeup(d, cons, st.watch, st.watchN, consIn, dirty) {
				st.solv.stats.Conflicts++
				return Unsat, nil
			}
		}
	}

	// Simplify disjunctions under the tightened bounds: drop entailed
	// ones, prune refuted disjuncts, unit-propagate single survivors.
	for {
		progressed := false
		kept := disj[:0:0] // fresh backing to avoid aliasing across branches
		for _, g := range disj {
			live := make([]Formula, 0, len(g.fs))
			entailed := false
			for _, alt := range g.fs {
				switch d.formulaStatus(alt) {
				case triTrue:
					entailed = true
				case triUnknown:
					live = append(live, alt)
				}
				if entailed {
					break
				}
			}
			if entailed {
				progressed = true
				continue
			}
			switch len(live) {
			case 0:
				st.solv.stats.Conflicts++
				return Unsat, nil
			case 1:
				// Unit: assert the sole survivor now.
				status, model := st.searchUnit(live[0], cons, append(kept, disj[indexAfter(disj, g):]...))
				return status, model
			default:
				if len(live) != len(g.fs) {
					progressed = true
				}
				kept = append(kept, orF{fs: live})
			}
		}
		disj = kept
		if !progressed {
			break
		}
	}

	// Decide: branch on a disjunction first (fewest alternatives first —
	// the most constrained choice point); otherwise split a domain.
	if len(disj) > 0 {
		pick := 0
		for i := 1; i < len(disj); i++ {
			if len(disj[i].fs) < len(disj[pick].fs) {
				pick = i
			}
		}
		g := disj[pick]
		rest := make([]orF, 0, len(disj)-1)
		rest = append(rest, disj[:pick]...)
		rest = append(rest, disj[pick+1:]...)
		for _, alt := range g.fs {
			saved := d.clone()
			status, model := st.search([]Formula{alt}, capCons(cons), capDisj(rest))
			if status == Sat || status == Unknown {
				return status, model
			}
			*st.dom = *saved
		}
		st.solv.stats.Conflicts++
		return Unsat, nil
	}

	// No disjunctions left. Find an unfixed variable appearing in some
	// constraint; if none, the store is bounds-consistent and every
	// constraint will be verified on the all-lower-bound assignment or
	// needs a split.
	v := pickBranchVar(d, cons)
	if v == InvalidVar {
		// All constrained variables fixed: verify and build the model.
		for i := range cons {
			if !conSatisfiedFixed(d, &cons[i]) {
				st.solv.stats.Conflicts++
				return Unsat, nil
			}
		}
		model := make(map[Var]int64, len(d.lo))
		for i := range d.lo {
			model[Var(i)] = d.lo[i]
		}
		return Sat, model
	}

	// Domain split: [lo, mid] then [mid+1, hi].
	lo, hi := d.lo[v], d.hi[v]
	mid := lo + (hi-lo)/2
	for _, half := range [2][2]int64{{lo, mid}, {mid + 1, hi}} {
		saved := d.clone()
		d.lo[v], d.hi[v] = half[0], half[1]
		st.dirtyVar, st.hasDirty = v, true
		status, model := st.search(nil, capCons(cons), nil)
		if status == Sat || status == Unknown {
			return status, model
		}
		*st.dom = *saved
	}
	st.solv.stats.Conflicts++
	return Unsat, nil
}

// searchUnit asserts a unit-propagated disjunct and continues.
func (st *searchState) searchUnit(f Formula, cons []lincon, disj []orF) (Status, map[Var]int64) {
	return st.search([]Formula{f}, capCons(cons), capDisj(disj))
}

// indexAfter finds g in disj (by slice position identity of fs) and returns
// the index after it; used to pass the remaining disjunctions onward when
// unit-propagating mid-scan.
func indexAfter(disj []orF, g orF) int {
	for i := range disj {
		if len(disj[i].fs) == len(g.fs) && (len(g.fs) == 0 || &disj[i].fs[0] == &g.fs[0]) {
			return i + 1
		}
	}
	return len(disj)
}

// capCons and capDisj cap a slice's capacity at its length, so sibling
// branches that receive the same store share the parent's backing array
// read-only and reallocate only when they append (copy-on-write). Elements
// are never mutated in place during search, which makes the sharing safe —
// and it replaces a full store copy per branch with a three-word slice
// header.
func capCons(cons []lincon) []lincon { return cons[:len(cons):len(cons)] }

func capDisj(disj []orF) []orF { return disj[:len(disj):len(disj)] }

// pickBranchVar selects the unfixed constrained variable with the smallest
// domain (first-fail heuristic), or InvalidVar if all are fixed.
func pickBranchVar(d *domains, cons []lincon) Var {
	best := InvalidVar
	var bestW int64
	for i := range cons {
		for _, t := range cons[i].terms {
			if d.fixed(t.V) {
				continue
			}
			w := d.width(t.V)
			if best == InvalidVar || w < bestW {
				best, bestW = t.V, w
			}
		}
	}
	return best
}
