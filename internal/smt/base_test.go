package smt

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIncrementalBaseMatchesScratch drives random Assert/Push/Pop/NewVar/
// CheckWith sequences and compares every base store the solver builds —
// most of them incrementally, from a memoized prefix fixpoint — with a
// from-scratch build of the same stack on a fresh solver: domains,
// constraint order, disjunction order, taint and conflict must all match.
func TestIncrementalBaseMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	incremental := 0
	for trial := 0; trial < 300; trial++ {
		s := NewSolver()
		var vars []Var
		for i := 0; i < 4; i++ {
			vars = append(vars, s.NewVar("v", 0, int64(3+rng.Intn(12))))
		}
		s.Assert(randFormula(rng, vars, 2)) // the "rules" below every frame
		for step := 0; step < 24; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				s.Assert(randFormula(rng, vars, 1+rng.Intn(2)))
			case op < 6:
				s.Push()
			case op < 8:
				if len(s.frames) > 0 {
					s.Pop()
				}
			case op == 8 && len(vars) < 6:
				vars = append(vars, s.NewVar("w", 0, int64(3+rng.Intn(12))))
			}
			if s.base.valid && s.base.epoch == s.epoch {
				continue // no build: the base is current
			}
			if f := s.prefixFixpoint(); f != nil && f.n > 0 {
				incremental++
			}
			s.CheckWith(randFormula(rng, vars, 1))
			compareScratch(t, trial, step, s)
		}
	}
	if incremental < 1000 {
		t.Fatalf("only %d builds started from a memoized prefix", incremental)
	}
}

// compareScratch rebuilds s's current stack on a fresh solver, whose base
// build has no memo to start from, and compares the two base stores.
func compareScratch(t *testing.T, trial, step int, s *Solver) {
	t.Helper()
	r := NewSolver()
	for v := range s.NumVars() {
		lo, hi := s.Bounds(Var(v))
		r.NewVar(s.VarName(Var(v)), lo, hi)
	}
	for _, f := range s.asserted {
		r.Assert(f)
	}
	got, want := &s.base, r.currentBase()
	if got.conflict != want.conflict {
		t.Fatalf("trial %d step %d: conflict %v, scratch %v", trial, step, got.conflict, want.conflict)
	}
	if got.conflict {
		return
	}
	if !slices.Equal(got.dom.lo, want.dom.lo) || !slices.Equal(got.dom.hi, want.dom.hi) {
		t.Fatalf("trial %d step %d: domains lo=%v hi=%v, scratch lo=%v hi=%v",
			trial, step, got.dom.lo, got.dom.hi, want.dom.lo, want.dom.hi)
	}
	if len(got.cons) != len(want.cons) {
		t.Fatalf("trial %d step %d: %d constraints, scratch %d", trial, step, len(got.cons), len(want.cons))
	}
	for i := range got.cons {
		g, w := got.cons[i], want.cons[i]
		if g.rhs != w.rhs || g.eq != w.eq || !slices.Equal(g.terms, w.terms) {
			t.Fatalf("trial %d step %d: constraint %d is %+v, scratch %+v", trial, step, i, g, w)
		}
	}
	if len(got.disj) != len(want.disj) {
		t.Fatalf("trial %d step %d: %d disjunctions, scratch %d", trial, step, len(got.disj), len(want.disj))
	}
	for i := range got.disj {
		if g, w := FormulaString(got.disj[i]), FormulaString(want.disj[i]); g != w {
			t.Fatalf("trial %d step %d: disjunction %d is %s, scratch %s", trial, step, i, g, w)
		}
	}
	if got.tainted != want.tainted || (got.tainted && !slices.Equal(got.disjTaint, want.disjTaint)) {
		t.Fatalf("trial %d step %d: taint %v %v, scratch %v %v",
			trial, step, got.tainted, got.disjTaint, want.tainted, want.disjTaint)
	}
}
