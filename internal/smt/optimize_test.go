package smt

import (
	"math/rand"
	"testing"
)

func TestMinimizeMaximizeSimple(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	s.Assert(Ge(V(x), C(17)))
	s.Assert(Le(V(x), C(64)))
	if v, st := s.Minimize(V(x)); st != Sat || v != 17 {
		t.Errorf("Minimize = (%d,%v), want (17,sat)", v, st)
	}
	if v, st := s.Maximize(V(x)); st != Sat || v != 64 {
		t.Errorf("Maximize = (%d,%v), want (64,sat)", v, st)
	}
}

func TestMinimizeUnsat(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(Gt(V(x), C(20)))
	if _, st := s.Minimize(V(x)); st != Unsat {
		t.Errorf("status %v, want unsat", st)
	}
}

func TestFeasibleRangeWithSuffixLookahead(t *testing.T) {
	// LeJIT's core query: after fixing I0..I2, what range can I3 take such
	// that SOME I4 still completes Σ I = 100 with 0 ≤ I_t ≤ 60?
	// Fixed prefix: I0=20, I1=15, I2=25 → I3 + I4 = 40, I4 ∈ [0,60]
	// → I3 ∈ [0, 40]  (paper Fig 1b step ②: 39 is valid, 70 is not).
	s := NewSolver()
	var is []Var
	var sum LinExpr
	for i := 0; i < 5; i++ {
		v := s.NewVar("I", 0, 60)
		is = append(is, v)
		sum = sum.Add(V(v))
	}
	s.Assert(Eq(sum, C(100)))
	s.Assert(Eq(V(is[0]), C(20)))
	s.Assert(Eq(V(is[1]), C(15)))
	s.Assert(Eq(V(is[2]), C(25)))

	lo, hi, st := s.FeasibleRange(V(is[3]))
	if st != Sat {
		t.Fatalf("status %v, want sat", st)
	}
	if lo != 0 || hi != 40 {
		t.Errorf("I3 range [%d,%d], want [0,40]", lo, hi)
	}
}

func TestFeasibleRangeWithImplicationActive(t *testing.T) {
	// Same as above but with the paper's R3 active (Congestion > 0, no
	// burst generated yet): when choosing I3, either I3 itself bursts
	// (≥ 30) or I4 must. I4 = 40 - I3 ≥ 30 → I3 ≤ 10. So the feasible
	// set for I3 is [0,10] ∪ [30,40] — a hole! Min/max see [0,40].
	const bw = 60
	s := NewSolver()
	var is []Var
	var sum LinExpr
	for i := 0; i < 5; i++ {
		v := s.NewVar("I", 0, bw)
		is = append(is, v)
		sum = sum.Add(V(v))
	}
	cong := s.NewVar("Congestion", 0, 100)
	s.Assert(Eq(sum, C(100)))
	var burst []Formula
	for _, v := range is {
		burst = append(burst, Ge(V(v), C(bw/2)))
	}
	s.Assert(Implies(Gt(V(cong), C(0)), Or(burst...)))
	s.Assert(Eq(V(cong), C(8)))
	s.Assert(Eq(V(is[0]), C(20)))
	s.Assert(Eq(V(is[1]), C(15)))
	s.Assert(Eq(V(is[2]), C(25)))

	lo, hi, st := s.FeasibleRange(V(is[3]))
	if st != Sat {
		t.Fatalf("status %v, want sat", st)
	}
	if lo != 0 || hi != 40 {
		t.Errorf("I3 hull [%d,%d], want [0,40]", lo, hi)
	}
	// The hole: I3 in [11,29] must be infeasible.
	for _, bad := range []int64{11, 20, 29} {
		r := s.CheckWith(Eq(V(is[3]), C(bad)))
		if r.Status != Unsat {
			t.Errorf("I3=%d should be infeasible (hole), got %v", bad, r.Status)
		}
	}
	for _, good := range []int64{0, 10, 30, 40} {
		r := s.CheckWith(Eq(V(is[3]), C(good)))
		if r.Status != Sat {
			t.Errorf("I3=%d should be feasible, got %v", good, r.Status)
		}
	}
}

func TestMinimizeObjectiveExpression(t *testing.T) {
	// Minimize x + 2y subject to x + y ≥ 10.
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	y := s.NewVar("y", 0, 100)
	s.Assert(Ge(V(x).Add(V(y)), C(10)))
	v, st := s.Minimize(Sum(V(x), CV(2, y)))
	if st != Sat || v != 10 { // x=10, y=0
		t.Errorf("Minimize = (%d,%v), want (10,sat)", v, st)
	}
}

func TestMinimizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		dom := int64(4)
		s := NewSolver()
		vars := []Var{s.NewVar("a", 0, dom), s.NewVar("b", 0, dom)}
		f := randFormula(rng, vars, 2)
		s.Assert(f)
		obj := Sum(CV(int64(rng.Intn(5)-2), vars[0]), CV(int64(rng.Intn(5)-2), vars[1]))

		got, st := s.Minimize(obj)
		want, found := bruteMin(f, obj, vars, dom)
		if !found {
			if st != Unsat {
				t.Fatalf("trial %d: want unsat, got %v", trial, st)
			}
			continue
		}
		if st != Sat || got != want {
			t.Fatalf("trial %d: Minimize=(%d,%v), brute=%d for %s", trial, got, st, want, FormulaString(f))
		}
	}
}

func bruteMin(f Formula, obj LinExpr, vars []Var, dom int64) (int64, bool) {
	best := int64(0)
	found := false
	assign := denseAssign(vars)
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			ok, err := EvalFormula(f, assign)
			if err != nil || !ok {
				return
			}
			v, err := obj.Eval(assign)
			if err != nil {
				return
			}
			if !found || v < best {
				best, found = v, true
			}
			return
		}
		for v := int64(0); v <= dom; v++ {
			assign[vars[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best, found
}
