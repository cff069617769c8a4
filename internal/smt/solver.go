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
// assigning every declared variable a value within its bounds. The model is
// dense: Model[v] is the value of v, and len(Model) == NumVars() at the time
// of the Check. Each Sat result owns a fresh slice the caller may modify.
type Result struct {
	Status Status
	Model  []int64
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

	// base is the memoized propagated store for the current epoch. Its
	// buffers are reused from one epoch to the next.
	base baseStore
	// fixFrame and fixLast memoize pre-simplification fixpoints of two
	// stack prefixes (see currentBase): the bottom frame's, which every
	// Push/Pop cycle above it shares, and the last built epoch's.
	fixFrame, fixLast prefixFix

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

	// search is the per-Check search state; its stacks are reused across
	// Checks, so a warm probe allocates nothing but its model.
	search searchState

	// Worklist-propagation and formula-decomposition scratch, reused across
	// Checks.
	workQ   []int32
	inQ     []bool
	chgVars []Var
	pend    []Formula
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
func (s *Solver) compileAssert(f Formula) compiledAssert {
	var ca compiledAssert
	ca.cons, ca.disj, ca.unsat = s.compileInto(nnf(f), nil, nil, nil)
	if ca.unsat {
		return compiledAssert{unsat: true}
	}
	return ca
}

// compileInto decomposes the NNF formula f, appending its linear
// constraints to cons and its disjunctions to disj in compileAssert's order;
// rewritten term lists are carved from arena (see normalizeAtom). On unsat
// (a trivially-false conjunct) cons and disj hold a partial decomposition
// and must be discarded.
func (s *Solver) compileInto(f Formula, cons []lincon, disj []orF, arena *[]term) ([]lincon, []orF, bool) {
	pend := append(s.pend[:0], f)
	unsat := false
	for len(pend) > 0 && !unsat {
		g := pend[len(pend)-1]
		pend = pend[:len(pend)-1]
		switch h := g.(type) {
		case boolF:
			unsat = !h.v
		case atomF:
			c, kind := normalizeAtom(h.a, arena)
			switch kind {
			case normFalse:
				unsat = true
			case normCon:
				cons = append(cons, c)
			case normSplit: // e ≠ 0 becomes e < 0 ∨ e > 0
				lt := atomF{Atom{Expr: h.a.Expr, Op: OpLT}}
				gt := atomF{Atom{Expr: h.a.Expr, Op: OpGT}}
				disj = append(disj, orF{fs: []Formula{lt, gt}})
			}
		case andF:
			pend = append(pend, h.fs...)
		case orF:
			disj = append(disj, h)
		case notF:
			// nnf leaves no notF nodes; defensive.
			pend = append(pend, nnf(h))
		}
	}
	s.pend = pend[:0]
	return cons, disj, unsat
}

// baseStore memoizes the assertion-stack-dependent part of a Check: the
// union of all compiled assertions plus the root domains propagated once to
// fixpoint. CheckWith warm-starts every probe of the same epoch from here
// instead of recompiling and re-propagating the whole stack. Probes only
// read it: cons is one shared slice that every search node sees, with the
// node's own additions kept apart (searchState.ext).
type baseStore struct {
	valid    bool // built at least once; epoch is meaningful
	epoch    uint64
	conflict bool // the assertions alone are Unsat
	dom      domains
	cons     []lincon
	disj     []orF
	// watch lists, per variable, the indices of cons containing it, so a
	// probe that tightens v wakes only the constraints that can react.
	watch csrIndex
	// order lists the variables of cons once each, by first appearance:
	// the branching heuristic's scan order.
	order []Var
	// disjTaint[v] marks variables connected to a live disjunction; it is
	// meaningful only when tainted is set, i.e. when some disjunction
	// survived simplification (see interval.go).
	disjTaint []bool
	tainted   bool

	// Build scratch, reused across epochs.
	ends   []int     // ends[i]: len(cons) after the compiled assertion i
	terms  []term    // arena for the term lists of unit constraints
	dspare []orF     // the other half of simplifyDisjunctions' double buffer
	alts   []Formula // backing for pruned disjunctions' surviving alternatives
	seen   []bool
	uf     []int32
	roots  []bool
}

// prefixFix is the memoized pre-simplification fixpoint of one stack
// prefix: the declared bounds propagated to fixpoint through the compiled
// constraints of the first n assertions, under the epoch that prefix had.
type prefixFix struct {
	ok     bool
	epoch  uint64
	n      int
	lo, hi []int64
}

// save records the fixpoint d for the stack prefix of length n.
func (f *prefixFix) save(epoch uint64, n int, d *domains) {
	f.ok, f.epoch, f.n = true, epoch, n
	f.lo = append(f.lo[:0], d.lo...)
	f.hi = append(f.hi[:0], d.hi...)
}

// csrIndex is a variable → constraint-index map in compressed-row form:
// the constraints containing v are idx[off[v]:off[v+1]], ascending.
type csrIndex struct {
	off []int32
	idx []int32
	pos []int32 // build scratch
}

// build indexes cons over nvars variables, reusing the index's buffers.
func (w *csrIndex) build(nvars int, cons []lincon) {
	w.off = append(w.off[:0], make([]int32, nvars+1)...)
	for i := range cons {
		for _, t := range cons[i].terms {
			w.off[t.V+1]++
		}
	}
	for v := 0; v < nvars; v++ {
		w.off[v+1] += w.off[v]
	}
	w.pos = append(w.pos[:0], w.off[:nvars]...)
	n := int(w.off[nvars])
	if cap(w.idx) < n {
		w.idx = make([]int32, n)
	}
	w.idx = w.idx[:n]
	for i := range cons {
		for _, t := range cons[i].terms {
			w.idx[w.pos[t.V]] = int32(i)
			w.pos[t.V]++
		}
	}
}

// of returns the indices of the constraints containing v.
func (w *csrIndex) of(v Var) []int32 { return w.idx[w.off[v]:w.off[v+1]] }

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
	s.compiled = append(s.compiled, s.compileAssert(f))
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
	if s.base.valid && s.base.epoch == s.epoch {
		s.stats.WarmStarts++
	}
	base := s.currentBase()
	if base.conflict {
		s.stats.Conflicts++
		return Result{Status: Unsat}
	}
	st := &s.search
	st.reset(s, base)
	// The extras land on the search's own stacks; the base store is only
	// read.
	ext := st.ext
	for _, f := range extra {
		var unsat bool
		ext, st.djs, unsat = s.compileInto(nnf(f), ext, st.djs, &st.terms)
		if unsat {
			s.stats.Conflicts++
			return Result{Status: Unsat}
		}
	}
	st.ext = ext
	disj := base.disj
	if n := len(st.djs); n > 0 {
		disj = st.joinDisj(disj, n)
	}
	if s.Timeout > 0 {
		st.deadline = time.Now().Add(s.Timeout)
	}
	// The base domains are at fixpoint with the base constraints, so only
	// the extras (and whatever they disturb) need propagating; the search's
	// own first full propagation pass is then redundant and skipped.
	if len(ext) > 0 {
		if !s.propagateWakeup(&st.dom, base.cons, &base.watch, ext, len(base.cons), nil) {
			s.stats.Conflicts++
			return Result{Status: Unsat}
		}
	}
	st.skipProp = true
	status, model := st.search(nil, len(ext), disj)
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
//
// The build is incremental. Bounds propagation is monotone, so its greatest
// fixpoint below the declared bounds is reached from any box that contains
// it, and the fixpoint of a stack prefix's constraints contains the
// fixpoint of the whole stack's. The build therefore starts from the
// memoized pre-simplification fixpoint of the longest stack prefix already
// built (prefixFix) and propagates only the constraints asserted since. The
// domains, the constraint order and the disjunction order come out exactly
// as a build from the declared bounds would give them.
func (s *Solver) currentBase() *baseStore {
	b := &s.base
	if b.valid && b.epoch == s.epoch {
		return b
	}
	s.stats.BaseBuilds++
	b.valid, b.epoch, b.conflict, b.tainted = true, s.epoch, false, false
	nv := len(s.lo)
	b.cons, b.disj, b.ends, b.terms = b.cons[:0], b.disj[:0], b.ends[:0], b.terms[:0]
	for i := range s.compiled {
		ca := &s.compiled[i]
		if ca.unsat {
			b.conflict = true
		}
		b.cons = append(b.cons, ca.cons...)
		b.disj = append(b.disj, ca.disj...)
		b.ends = append(b.ends, len(b.cons))
	}
	b.dom.lo, b.dom.hi = append(b.dom.lo[:0], s.lo...), append(b.dom.hi[:0], s.hi...)
	if b.conflict {
		return b
	}
	nr := len(b.cons) // the compiled ("raw") constraints; simplification appends after
	b.watch.build(nv, b.cons)
	if !s.propagateBase(b) {
		b.conflict = true
		return b
	}
	s.fixLast.save(s.epoch, len(s.compiled), &b.dom)
	b.simplifyDisjunctions(s, nr)
	if b.conflict {
		return b
	}
	if len(b.cons) > nr {
		b.watch.build(nv, b.cons)
	}
	b.buildOrder(nv)
	b.buildTaint(nv)
	return b
}

// propagateBase brings b.dom (the declared bounds) to the fixpoint of the
// compiled constraints b.cons, starting from the longest memoized prefix
// fixpoint that is still valid, and records the bottom frame's fixpoint
// when the build passes it. It returns false on conflict.
func (s *Solver) propagateBase(b *baseStore) bool {
	n := len(s.compiled)
	start := 0 // stack prefix the domains are at fixpoint for
	if f := s.prefixFixpoint(); f != nil {
		start = f.n
		copy(b.dom.lo, f.lo)
		copy(b.dom.hi, f.hi)
	}
	step := func(to int) bool {
		return s.propagateWakeup(&b.dom, b.cons[:s.consEnd(to)], &b.watch, nil, s.consEnd(start), nil)
	}
	if len(s.frames) > 0 {
		if m := s.frames[0]; start < m && m < n {
			if !step(m) {
				return false
			}
			if ep, ok := s.prefixEpoch(m); ok {
				s.fixFrame.save(ep, m, &b.dom)
			}
			start = m
		}
	}
	return step(n)
}

// prefixFixpoint returns the memoized fixpoint the next base build starts
// from — the longest memoized prefix of the current stack — or nil.
func (s *Solver) prefixFixpoint() *prefixFix {
	var best *prefixFix
	for _, f := range [2]*prefixFix{&s.fixFrame, &s.fixLast} {
		if f.ok && f.n <= len(s.compiled) && (best == nil || f.n > best.n) {
			if ep, ok := s.prefixEpoch(f.n); ok && ep == f.epoch {
				best = f
			}
		}
	}
	return best
}

// consEnd returns how many base constraints the first n assertions compile
// to (valid during a build, after the concatenation).
func (s *Solver) consEnd(n int) int {
	if n == 0 {
		return 0
	}
	return s.base.ends[n-1]
}

// prefixEpoch returns the epoch of the current stack's prefix of length n,
// when one is on record for the current variable set.
func (s *Solver) prefixEpoch(n int) (uint64, bool) {
	if n == 0 {
		return s.epoch0, s.gen0 == s.gen
	}
	return s.posEpoch[n-1], s.posGen[n-1] == s.gen
}

// buildOrder lists the variables of b.cons by first appearance.
func (b *baseStore) buildOrder(nvars int) {
	b.seen = append(b.seen[:0], make([]bool, nvars)...)
	b.order = b.order[:0]
	for i := range b.cons {
		for _, t := range b.cons[i].terms {
			if !b.seen[t.V] {
				b.seen[t.V] = true
				b.order = append(b.order, t.V)
			}
		}
	}
}

// propagateWakeup runs worklist propagation over the constraints base ++ ext
// (indices below len(base) address base, the rest ext), assuming d is
// already at fixpoint with respect to the constraints before newFrom except
// for variables listed in dirty (mutated directly by a domain split). Seeds
// are the constraints from newFrom on plus the watchers of every dirty
// variable. When a constraint tightens a variable, the constraints
// containing that variable are re-queued — via watch for base (watch may
// index further constraints than base holds; they are ignored), by linear
// scan for the few constraints in ext. This makes the cost of a node
// proportional to the constraints it actually disturbs instead of the whole
// assertion stack.
func (s *Solver) propagateWakeup(d *domains, base []lincon, watch *csrIndex, ext []lincon, newFrom int, dirty []Var) bool {
	nb := len(base)
	n := nb + len(ext)
	if cap(s.inQ) < n {
		s.inQ = make([]bool, n)
	}
	inQ := s.inQ[:n]
	clear(inQ)
	q := s.workQ[:0]
	enqueueVar := func(v Var) {
		for _, j := range watch.of(v) {
			if int(j) >= nb {
				break
			}
			if !inQ[j] {
				inQ[j] = true
				q = append(q, j)
			}
		}
		for j := range ext {
			if inQ[nb+j] {
				continue
			}
			for _, t := range ext[j].terms {
				if t.V == v {
					inQ[nb+j] = true
					q = append(q, int32(nb+j))
					break
				}
			}
		}
	}
	for _, v := range dirty {
		enqueueVar(v)
	}
	for i := newFrom; i < n; i++ {
		if !inQ[i] {
			inQ[i] = true
			q = append(q, int32(i))
		}
	}
	chg := s.chgVars[:0]
	ok := true
	for head := 0; head < len(q); head++ {
		i := int(q[head])
		inQ[i] = false
		var c *lincon
		if i < nb {
			c = &base[i]
		} else {
			c = &ext[i-nb]
		}
		chg = chg[:0]
		okOne, _ := propagateOne(d, c, &chg)
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
// It lives in the Solver and is reset per Check, so its stacks keep their
// capacity from one Check to the next.
type searchState struct {
	dom   domains
	solv  *Solver
	base  *baseStore
	nodes uint64
	limit uint64
	// propsIn snapshots cumulative propagations at Check entry; deadline is
	// the per-Check wall-clock cutoff (zero = none). stopErr records why the
	// search gave up, reported as Result.Err alongside Unknown.
	propsIn  uint64
	deadline time.Time
	stopErr  error
	// ext is the stack of constraints added on top of the base store: the
	// probe's extras, then whatever each search node decomposes. A node
	// sees ext[:k] for its own k; its children push above k, and siblings
	// reuse the same region in turn. Nodes hold lengths, not slices, and
	// re-slice after every child, since a child may reallocate.
	ext []lincon
	// djs and alts are stacks backing the disjunction lists search nodes
	// build (kept and remaining disjunctions, and the surviving
	// alternatives of pruned ones); save stacks domain snapshots taken
	// before branching. Each node pops what it pushed before returning.
	djs   []orF
	alts  []Formula
	save  []int64
	terms []term // arena for the term lists of ext's normalized constraints
	// skipProp marks the domains already at fixpoint with the constraints
	// handed to the next search call (warm-started probes); consumed once.
	skipProp bool
	// dirtyVar is the variable a domain split just narrowed; the next
	// search call seeds propagation from its watchers. Consumed once.
	dirtyVar Var
	hasDirty bool
}

// reset prepares the search state for one Check against base.
func (st *searchState) reset(s *Solver, base *baseStore) {
	st.solv, st.base = s, base
	st.dom.lo = append(st.dom.lo[:0], base.dom.lo...)
	st.dom.hi = append(st.dom.hi[:0], base.dom.hi...)
	st.nodes, st.limit, st.propsIn = 0, s.MaxNodes, s.stats.Propagations
	st.deadline, st.stopErr = time.Time{}, nil
	st.ext, st.djs, st.alts, st.save, st.terms = st.ext[:0], st.djs[:0], st.alts[:0], st.save[:0], st.terms[:0]
	st.skipProp, st.hasDirty = false, false
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

// search is the DPLL core. pending, when non-nil, is a formula not yet
// decomposed; the node's constraint store is the base store plus ext[:k];
// disj holds unresolved disjunctions, read-only. The domains in st.dom
// reflect the current branch. On Sat it returns a complete model.
func (st *searchState) search(pending Formula, k int, disj []orF) (Status, []int64) {
	djMark, altMark, termMark := len(st.djs), len(st.alts), len(st.terms)
	status, model := st.node(pending, k, disj)
	st.djs, st.alts, st.terms = st.djs[:djMark], st.alts[:altMark], st.terms[:termMark]
	return status, model
}

// node does search's work; search pops the node's stacks.
func (st *searchState) node(pending Formula, k int, disj []orF) (Status, []int64) {
	st.nodes++
	s := st.solv
	s.stats.Nodes++
	if err := st.overBudget(); err != nil {
		st.stopErr = err
		return Unknown, nil
	}

	d := &st.dom
	b := st.base
	ext := st.ext[:k]

	// Decompose the pending formula into constraints and disjunctions.
	if pending != nil {
		var unsat bool
		mark := len(st.djs)
		ext, st.djs, unsat = s.compileInto(pending, ext, st.djs, &st.terms)
		st.ext = ext
		if unsat {
			s.stats.Conflicts++
			return Unsat, nil
		}
		if n := len(st.djs) - mark; n > 0 {
			disj = st.joinDisj(disj, n)
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
		if len(ext) > k || dirty != nil {
			if !s.propagateWakeup(d, b.cons, &b.watch, ext, len(b.cons)+k, dirty) {
				s.stats.Conflicts++
				return Unsat, nil
			}
		}
	}
	k = len(ext)

	// Simplify disjunctions under the tightened bounds: drop entailed
	// ones, prune refuted disjuncts, unit-propagate single survivors. Each
	// pass writes the kept disjunctions to a fresh region of the stack; a
	// disjunction that lost no alternative is kept as is.
	for {
		progressed := false
		kept := len(st.djs)
		for i, g := range disj {
			live := len(st.alts)
			entailed := false
			for _, alt := range g.fs {
				switch d.formulaStatus(alt) {
				case triTrue:
					entailed = true
				case triUnknown:
					st.alts = append(st.alts, alt)
				}
				if entailed {
					break
				}
			}
			if entailed {
				st.alts = st.alts[:live]
				progressed = true
				continue
			}
			switch n := len(st.alts) - live; n {
			case 0:
				s.stats.Conflicts++
				return Unsat, nil
			case 1:
				// Unit: assert the sole survivor now.
				unit := st.alts[live]
				st.alts = st.alts[:live]
				st.djs = append(st.djs, disj[i+1:]...)
				return st.search(unit, k, st.djs[kept:])
			default:
				if n != len(g.fs) {
					progressed = true
					g = orF{fs: st.alts[live:]}
				} else {
					st.alts = st.alts[:live]
				}
				st.djs = append(st.djs, g)
			}
		}
		disj = st.djs[kept:]
		if !progressed {
			break
		}
	}

	// Decide: branch on a disjunction first (fewest alternatives first —
	// the most constrained choice point); otherwise split a domain.
	nv := len(d.lo)
	if len(disj) > 0 {
		pick := 0
		for i := 1; i < len(disj); i++ {
			if len(disj[i].fs) < len(disj[pick].fs) {
				pick = i
			}
		}
		g := disj[pick]
		restStart := len(st.djs)
		st.djs = append(st.djs, disj[:pick]...)
		st.djs = append(st.djs, disj[pick+1:]...)
		rest := st.djs[restStart:]
		saved := st.pushSave()
		for _, alt := range g.fs {
			status, model := st.search(alt, k, rest)
			if status == Sat || status == Unknown {
				st.save = st.save[:saved]
				return status, model
			}
			st.restore(saved, nv)
		}
		st.save = st.save[:saved]
		s.stats.Conflicts++
		return Unsat, nil
	}

	// No disjunctions left. Find an unfixed variable appearing in some
	// constraint; if none, the store is bounds-consistent and every
	// constraint will be verified on the all-lower-bound assignment or
	// needs a split.
	v := pickBranchVar(d, b.order, ext)
	if v == InvalidVar {
		// All constrained variables fixed: verify and build the model.
		for i := range b.cons {
			if !conSatisfiedFixed(d, &b.cons[i]) {
				s.stats.Conflicts++
				return Unsat, nil
			}
		}
		for i := range ext {
			if !conSatisfiedFixed(d, &ext[i]) {
				s.stats.Conflicts++
				return Unsat, nil
			}
		}
		return Sat, append(make([]int64, 0, nv), d.lo...)
	}

	// Domain split: [lo, mid] then [mid+1, hi].
	lo, hi := d.lo[v], d.hi[v]
	mid := lo + (hi-lo)/2
	saved := st.pushSave()
	for _, half := range [2][2]int64{{lo, mid}, {mid + 1, hi}} {
		d.lo[v], d.hi[v] = half[0], half[1]
		st.dirtyVar, st.hasDirty = v, true
		status, model := st.search(nil, k, nil)
		if status == Sat || status == Unknown {
			st.save = st.save[:saved]
			return status, model
		}
		st.restore(saved, nv)
	}
	st.save = st.save[:saved]
	s.stats.Conflicts++
	return Unsat, nil
}

// joinDisj returns the disjunction list disj followed by the n
// disjunctions just pushed on the disjunction stack, laid out above them.
func (st *searchState) joinDisj(disj []orF, n int) []orF {
	added := st.djs[len(st.djs)-n:]
	st.djs = append(append(st.djs, disj...), added...)
	return st.djs[len(st.djs)-len(disj)-n:]
}

// pushSave snapshots the domains onto the save stack and returns the
// snapshot's offset.
func (st *searchState) pushSave() int {
	at := len(st.save)
	st.save = append(append(st.save, st.dom.lo...), st.dom.hi...)
	return at
}

// restore copies the snapshot at offset at (over nv variables) back into
// the domains.
func (st *searchState) restore(at, nv int) {
	copy(st.dom.lo, st.save[at:at+nv])
	copy(st.dom.hi, st.save[at+nv:at+2*nv])
}

// pickBranchVar selects the unfixed constrained variable with the smallest
// domain (first-fail heuristic), or InvalidVar if all are fixed. Ties go to
// the variable appearing first in the store: the base store's variables in
// first-appearance order, then those of the extra constraints. A variable's
// repeat appearances cannot change the choice, so each is looked at once
// per base variable.
func pickBranchVar(d *domains, order []Var, ext []lincon) Var {
	best := InvalidVar
	var bestW int64
	for _, v := range order {
		if d.fixed(v) {
			continue
		}
		if w := d.width(v); best == InvalidVar || w < bestW {
			best, bestW = v, w
		}
	}
	for i := range ext {
		for _, t := range ext[i].terms {
			if d.fixed(t.V) {
				continue
			}
			if w := d.width(t.V); best == InvalidVar || w < bestW {
				best, bestW = t.V, w
			}
		}
	}
	return best
}
