package ilp

import (
	"math/rand"
	"testing"

	"repro/internal/smt"
)

func TestRepairAlreadyFeasible(t *testing.T) {
	s := smt.NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(smt.Ge(smt.V(x), smt.C(2)))
	got, st := Repair(s, []smt.Var{x}, []int64{5})
	if st != smt.Sat || got[0] != 5 {
		t.Errorf("Repair = %v (%v), want x=5", got, st)
	}
}

func TestRepairProjectsToNearest(t *testing.T) {
	// The paper's Fig 1a: model output [20,15,25,70,8] violates
	// I3 ≤ 60 and Σ I = 100; the L1-minimal repair moves as little volume
	// as possible.
	s := smt.NewSolver()
	var vars []smt.Var
	var sum smt.LinExpr
	for i := 0; i < 5; i++ {
		v := s.NewVar("I", 0, 60)
		vars = append(vars, v)
		sum = sum.Add(smt.V(v))
	}
	s.Assert(smt.Eq(sum, smt.C(100)))
	targets := []int64{20, 15, 25, 70, 8}
	got, st := Repair(s, vars, targets)
	if st != smt.Sat {
		t.Fatalf("status %v", st)
	}
	var total int64
	for _, x := range got {
		total += x
	}
	if total != 100 {
		t.Errorf("repaired sum = %d", total)
	}
	// Optimal distance: clamping I3 to 60 costs 10, then the remaining
	// excess (sum 128 vs 100) must shed 28 more: total ≥ 38.
	if d := Distance(got, targets); d != 38 {
		t.Errorf("repair distance = %d, want 38", d)
	}
}

func TestRepairInfeasible(t *testing.T) {
	s := smt.NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(smt.Ge(smt.V(x), smt.C(20)))
	if _, st := Repair(s, []smt.Var{x}, []int64{5}); st != smt.Unsat {
		t.Errorf("status %v, want unsat", st)
	}
}

func TestRepairEmptyVars(t *testing.T) {
	s := smt.NewSolver()
	got, st := Repair(s, nil, nil)
	if st != smt.Sat || len(got) != 0 {
		t.Errorf("empty repair: %v (%v)", got, st)
	}
}

func TestRepairLeavesAssertionsIntact(t *testing.T) {
	s := smt.NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(smt.Ge(smt.V(x), smt.C(2)))
	before := s.NumAssertions()
	Repair(s, []smt.Var{x}, []int64{0})
	if s.NumAssertions() != before {
		t.Error("Repair must not leave assertions behind")
	}
}

func TestRepairMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		s := smt.NewSolver()
		a := s.NewVar("a", 0, 8)
		b := s.NewVar("b", 0, 8)
		k := int64(rng.Intn(12))
		s.Assert(smt.Ge(smt.V(a).Add(smt.V(b)), smt.C(k)))
		s.Assert(smt.Ne(smt.V(a), smt.V(b)))
		targets := []int64{int64(rng.Intn(9)), int64(rng.Intn(9))}

		got, st := Repair(s, []smt.Var{a, b}, targets)
		// Brute force.
		best := int64(1 << 30)
		for av := int64(0); av <= 8; av++ {
			for bv := int64(0); bv <= 8; bv++ {
				if av+bv >= k && av != bv {
					d := absI(av-targets[0]) + absI(bv-targets[1])
					if d < best {
						best = d
					}
				}
			}
		}
		if st != smt.Sat {
			t.Fatalf("trial %d: status %v", trial, st)
		}
		if d := Distance(got, targets); d != best {
			t.Errorf("trial %d: distance %d, brute %d", trial, d, best)
		}
	}
}

func absI(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
