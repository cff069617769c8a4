package smt

import (
	"math/rand"
	"testing"
)

// FuzzSolverVsBrute drives random small-domain formulas through
// Push/Assert/Pop/NewVar/Check/CheckWith and compares every status with
// exhaustive enumeration (bruteSat). After each Pop the solver must answer
// exactly as it did before the matching Push, and its epoch must return to
// the one recorded there unless a variable was declared in between — the
// assertion-stack and epoch bookkeeping the slot oracle's memos rely on.
func FuzzSolverVsBrute(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 0, 3, 2, 3})
	f.Add(int64(7), []byte{1, 0, 0, 4, 1, 0, 3, 2, 3, 2, 3})
	f.Add(int64(42), []byte{0, 1, 5, 0, 3, 4, 2, 3, 1, 1, 0, 2, 2, 4})
	f.Add(int64(-3), []byte{1, 0, 1, 0, 1, 0, 3, 2, 2, 2, 3, 0, 0, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		const dom = 4
		rng := rand.New(rand.NewSource(seed))
		s := NewSolver()
		vars := []Var{s.NewVar("a", 0, dom), s.NewVar("b", 0, dom)}
		type frame struct {
			fs     []Formula
			status Status // Check() status when the frame was opened
			epoch  uint64 // epoch when the frame was opened
			nvars  int    // len(vars) when the frame was opened
		}
		stack := []frame{{}}
		active := func() Formula {
			var fs []Formula
			for _, fr := range stack {
				fs = append(fs, fr.fs...)
			}
			return And(fs...)
		}
		check := func(op int, extra Formula) Status {
			t.Helper()
			want := active()
			var r Result
			if extra == nil {
				r = s.Check()
			} else {
				r = s.CheckWith(extra)
				want = And(want, extra)
			}
			sat := bruteSat(want, vars, dom)
			switch {
			case r.Status == Unknown:
				t.Fatalf("op %d: unknown on a tiny problem", op)
			case (r.Status == Sat) != sat:
				t.Fatalf("op %d: solver %v, brute sat=%v for %s", op, r.Status, sat, FormulaString(want))
			case r.Status == Sat:
				if ok, err := EvalFormula(want, r.Model); err != nil || !ok {
					t.Fatalf("op %d: model %v violates %s", op, r.Model, FormulaString(want))
				}
			}
			return r.Status
		}
		for i, op := range ops {
			switch op % 6 {
			case 0:
				g := randFormula(rng, vars, 2)
				s.Assert(g)
				stack[len(stack)-1].fs = append(stack[len(stack)-1].fs, g)
			case 1:
				st := check(i, nil)
				s.Push()
				stack = append(stack, frame{status: st, epoch: s.Epoch(), nvars: len(vars)})
			case 2:
				if len(stack) == 1 {
					continue
				}
				top := stack[len(stack)-1]
				s.Pop()
				stack = stack[:len(stack)-1]
				if restored := s.Epoch() == top.epoch; restored != (len(vars) == top.nvars) {
					t.Fatalf("op %d: epoch restored=%v after Pop with %d vars declared since Push", i, restored, len(vars)-top.nvars)
				}
				if len(vars) == top.nvars {
					if st := check(i, nil); st != top.status {
						t.Fatalf("op %d: status %v after Pop, %v before the matching Push", i, st, top.status)
					}
				}
			case 3:
				check(i, nil)
			case 4:
				check(i, randFormula(rng, vars, 2))
			case 5:
				if len(vars) < 4 {
					vars = append(vars, s.NewVar("v", 0, dom))
				}
			}
		}
		var total int
		for _, fr := range stack {
			total += len(fr.fs)
		}
		if n := s.NumAssertions(); n != total {
			t.Fatalf("solver holds %d assertions, reference %d", n, total)
		}
	})
}
