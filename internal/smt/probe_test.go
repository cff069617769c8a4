package smt_test

import (
	"testing"

	"repro/internal/rules"
	"repro/internal/smt"
)

// probeRules is a small telemetry rule set with the shapes the mined sets
// have: per-element bounds, a coupling sum, and an implication whose
// consequent (max(I) ≥ 30) stays a live disjunction once Congestion > 0.
const probeRules = `
const BW = 60
const T  = 5
rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule r2: sum(I) == TotalIngress
rule r3: Congestion > 0 -> max(I) >= BW/2
`

// warmProbeSolver sets a solver up the way a decoding lane leaves it at a
// fixed epoch: the rules asserted below a pushed frame that pins the prompt
// (TotalIngress = 40, Congestion = 3) and the first decoded value
// (I[0] = 10), with the epoch's base store built. It returns the solver and
// the next slot's variable, I[1]. The remaining ingress, 30, must all sit on
// one of I[1..4] for max(I) ≥ 30 to hold.
func warmProbeSolver(tb testing.TB) (*smt.Solver, smt.Var) {
	tb.Helper()
	schema := rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
	rs, err := rules.ParseRuleSet(probeRules, schema)
	if err != nil {
		tb.Fatal(err)
	}
	s := smt.NewSolver()
	b := rules.Instantiate(s, schema)
	f, err := rs.CompileAll(b)
	if err != nil {
		tb.Fatal(err)
	}
	s.Assert(f)
	s.Push()
	pin := func(field string, i int, v int64) {
		vs, _ := b.Vars(field)
		s.Assert(smt.Eq(smt.V(vs[i]), smt.C(v)))
	}
	pin("TotalIngress", 0, 40)
	pin("Congestion", 0, 3)
	pin("I", 0, 10)
	if r := s.Check(); r.Status != smt.Sat {
		tb.Fatalf("warm-up check: %v", r.Status)
	}
	is, _ := b.Vars("I")
	return s, is[1]
}

// warmProbes returns the extra atoms of an Unsat probe (I[1] ∈ [1, 29]:
// the rest of the 30 then leaves no element able to reach 30, refuted at the
// root) and a Sat one (I[1] ∈ [0, 0]: the search splits the max(I)
// disjunction to place the 30 on another element).
func warmProbes(v smt.Var) (unsat, sat [2]smt.Formula) {
	unsat = [2]smt.Formula{smt.Ge(smt.V(v), smt.C(1)), smt.Le(smt.V(v), smt.C(29))}
	sat = [2]smt.Formula{smt.Ge(smt.V(v), smt.C(0)), smt.Le(smt.V(v), smt.C(0))}
	return unsat, sat
}

// TestWarmProbeAllocs pins the solver's probe path allocation-free at a
// fixed epoch: a warm Unsat probe allocates nothing, not even to compile its
// extra atoms (their rewritten term lists come from the search's arena), and
// a warm Sat probe allocates one object, its model.
func TestWarmProbeAllocs(t *testing.T) {
	s, v := warmProbeSolver(t)
	unsat, sat := warmProbes(v)
	if r := s.CheckWith(unsat[:]...); r.Status != smt.Unsat {
		t.Fatalf("unsat probe: %v", r.Status)
	}
	nodes := s.Stats().Nodes
	if r := s.CheckWith(sat[:]...); r.Status != smt.Sat || r.Model[v] != 0 {
		t.Fatalf("sat probe: %v model %v", r.Status, r.Model)
	}
	if n := s.Stats().Nodes - nodes; n < 2 {
		t.Fatalf("sat probe explored %d search nodes; it should branch", n)
	}
	epoch := s.Epoch()
	if n := testing.AllocsPerRun(100, func() { s.CheckWith(unsat[:]...) }); n != 0 {
		t.Errorf("warm Unsat probe: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.CheckWith(sat[:]...) }); n != 1 {
		t.Errorf("warm Sat probe: %v allocations, want 1", n)
	}
	if s.Epoch() != epoch || s.Stats().BaseBuilds != 1 {
		t.Fatalf("probes moved the epoch or rebuilt the base (%d builds)", s.Stats().BaseBuilds)
	}
}

// probeSink keeps the benchmark's probe results live.
var probeSink smt.Result

// BenchmarkWarmProbe measures one warm probe pair at a fixed epoch; run with
// -benchmem to see its allocations.
func BenchmarkWarmProbe(b *testing.B) {
	s, v := warmProbeSolver(b)
	unsat, sat := warmProbes(v)
	b.ResetTimer()
	for range b.N {
		probeSink = s.CheckWith(unsat[:]...)
		probeSink = s.CheckWith(sat[:]...)
	}
}
