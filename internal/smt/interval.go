package smt

// This file backs LeJIT's interval-based oracle fast path (DESIGN.md §6).
// The decoder answers most per-digit range probes from the propagated root
// bounds of the slot variable instead of issuing a solver check, which is
// sound only under two conditions established here:
//
//  1. BaseBounds must be a true over-approximation of the variable's
//     feasible projection. Bounds propagation guarantees that by
//     construction, so a probe range disjoint from BaseBounds is always
//     genuinely infeasible.
//  2. Treating the feasible set as one contiguous interval (so "between two
//     witnessed values" implies feasible) requires the projection to have no
//     holes. Disjunctions are the dominant source of holes, and the hole a
//     disjunction induces is not confined to the variables it mentions —
//     v = y ∧ (y ≤ 0 ∨ y ≥ 10) punches a hole into v's projection without
//     any disjunction naming v. VarDisjunctionTainted therefore reports v
//     as tainted when v is connected, through the constraint graph of the
//     epoch's live constraints, to any variable of a live disjunction.
//     For the conjunctive remainder, interval-ness is a property of the
//     rule grammar, not of linear arithmetic in general (coupled equality
//     chains like w = x+y ∧ x = y give w an all-even projection); LeJIT's
//     compiled rules — single unit-coefficient sum equalities plus pairwise
//     inequalities whose slack (≥2) exceeds their coefficients minus one —
//     cannot express such chains. DESIGN.md §6 states the argument; the
//     decoder's ValidateFastPath mode and the fast-path equivalence tests
//     check it empirically against the mined rule sets.
//
// "Live" matters for precision: the telemetry prompt pins the coarse fields
// before fine-grained decoding starts, which decides most rule disjunctions
// (e.g. Congestion = 0 entails the r3 implication). simplifyDisjunctions
// resolves those at base-build time — entailed disjunctions are dropped,
// refuted alternatives pruned, sole survivors asserted as base constraints —
// so taint reflects only the disjunctions that can still branch.

// simplifyDisjunctions resolves the base store's disjunctions against the
// propagated root bounds, to fixpoint. Sound for every later probe of the
// epoch: probes only conjoin extra constraints, which shrink the bound box,
// and a formula entailed (resp. refuted) on a box stays entailed (refuted)
// on any subset. The first nr constraints of b.cons are the compiled ones,
// indexed by b.watch; unit survivors are appended after them.
func (b *baseStore) simplifyDisjunctions(s *Solver, nr int) {
	// Rounds alternate between two buffers: pending is read while next is
	// written.
	pending, spare := b.disj, b.dspare
	b.alts = b.alts[:0]
	for len(pending) > 0 {
		next := spare[:0]
		unitFrom := len(b.cons)
		asserted := false
		for _, g := range pending {
			live := len(b.alts)
			entailed := false
			for _, alt := range g.fs {
				switch b.dom.formulaStatus(alt) {
				case triTrue:
					entailed = true
				case triUnknown:
					b.alts = append(b.alts, alt)
				}
				if entailed {
					break
				}
			}
			if entailed {
				b.alts = b.alts[:live]
				continue
			}
			switch n := len(b.alts) - live; n {
			case 0:
				b.conflict = true
				return
			case 1:
				// Unit: the sole surviving alternative must hold; fold it
				// into the base constraints.
				unit := b.alts[live]
				b.alts = b.alts[:live]
				var unsat bool
				b.cons, next, unsat = s.compileInto(nnf(unit), b.cons, next, &b.terms)
				if unsat {
					b.conflict = true
					return
				}
				asserted = true
			default:
				if n != len(g.fs) {
					g = orF{fs: b.alts[live:]}
				} else {
					b.alts = b.alts[:live]
				}
				next = append(next, g)
			}
		}
		if asserted {
			// New base constraints may tighten bounds, which can decide
			// disjunctions kept earlier in this round: re-examine them all.
			if !s.propagateWakeup(&b.dom, b.cons[:nr], &b.watch, b.cons[nr:], unitFrom, nil) {
				b.conflict = true
				return
			}
			pending, spare = next, pending
			continue
		}
		b.disj, b.dspare = next, pending
		return
	}
	b.disj, b.dspare = pending, spare
}

// buildTaint marks every variable whose feasible projection may be
// non-convex: those in the same constraint-graph component as a variable of
// a live disjunction. Components are computed by union-find over the base
// constraints; disjunction variables then taint their components.
func (b *baseStore) buildTaint(nvars int) {
	if len(b.disj) == 0 {
		return // no live disjunctions: every projection is an interval
	}
	b.tainted = true
	b.uf = b.uf[:0]
	for i := 0; i < nvars; i++ {
		b.uf = append(b.uf, int32(i))
	}
	for i := range b.cons {
		terms := b.cons[i].terms
		for j := 1; j < len(terms); j++ {
			rx, ry := b.find(int32(terms[0].V)), b.find(int32(terms[j].V))
			if rx != ry {
				b.uf[rx] = ry
			}
		}
	}
	b.roots = append(b.roots[:0], make([]bool, nvars)...)
	for _, g := range b.disj {
		b.taintRoots(g)
	}
	b.disjTaint = b.disjTaint[:0]
	for v := 0; v < nvars; v++ {
		b.disjTaint = append(b.disjTaint, b.roots[b.find(int32(v))])
	}
}

// find returns the union-find representative of x, halving paths.
func (b *baseStore) find(x int32) int32 {
	for b.uf[x] != x {
		b.uf[x] = b.uf[b.uf[x]]
		x = b.uf[x]
	}
	return x
}

// taintRoots marks the component of every variable f mentions.
func (b *baseStore) taintRoots(f Formula) {
	switch g := f.(type) {
	case atomF:
		for _, t := range g.a.Expr.terms {
			b.roots[b.find(int32(t.V))] = true
		}
	case notF:
		b.taintRoots(g.f)
	case andF:
		for _, sub := range g.fs {
			b.taintRoots(sub)
		}
	case orF:
		for _, sub := range g.fs {
			b.taintRoots(sub)
		}
	}
}

// BaseBounds returns the propagated root bounds of v under the active
// assertions: a superset of v's feasible values, computed without any solver
// check (the epoch's memoized base store is built at most once). feasible is
// false when the assertions alone are unsatisfiable — then no value of any
// variable is feasible.
func (s *Solver) BaseBounds(v Var) (lo, hi int64, feasible bool) {
	b := s.currentBase()
	if b.conflict {
		return 0, 0, false
	}
	return b.dom.lo[v], b.dom.hi[v], true
}

// VarDisjunctionTainted reports whether v's feasible projection may be
// non-convex under the active assertions: whether v shares a constraint-graph
// component with a variable of a disjunction the root bounds cannot decide.
// When it returns false, the feasible set of v is a single interval, so a
// caller holding two feasible witnesses may treat every value between them
// as feasible. Conservative: true never lies, false is exact for the
// bounds-consistent base (see the file comment for the argument).
func (s *Solver) VarDisjunctionTainted(v Var) bool {
	b := s.currentBase()
	if b.conflict {
		return true
	}
	return b.tainted && b.disjTaint[v]
}
