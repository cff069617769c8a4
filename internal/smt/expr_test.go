package smt

import (
	"testing"
	"testing/quick"
)

func TestLinExprBuilders(t *testing.T) {
	x, y := Var(0), Var(1)
	e := Sum(CV(2, x), CV(3, y), C(5))
	if got := e.Coef(x); got != 2 {
		t.Errorf("Coef(x) = %d, want 2", got)
	}
	if got := e.Coef(y); got != 3 {
		t.Errorf("Coef(y) = %d, want 3", got)
	}
	if got := e.Const(); got != 5 {
		t.Errorf("Const = %d, want 5", got)
	}
	if got := e.Coef(Var(7)); got != 0 {
		t.Errorf("Coef(absent) = %d, want 0", got)
	}
}

func TestLinExprAddCancels(t *testing.T) {
	x := Var(0)
	e := V(x).Add(CV(-1, x))
	if !e.IsConst() || e.Const() != 0 {
		t.Errorf("x + (-x) = %v, want constant 0", e)
	}
}

func TestLinExprSubScale(t *testing.T) {
	x, y := Var(0), Var(1)
	e := V(x).Sub(V(y)).Scale(4) // 4x - 4y
	if e.Coef(x) != 4 || e.Coef(y) != -4 {
		t.Errorf("scale: got %v", e)
	}
	if e.Scale(0).NumTerms() != 0 {
		t.Error("Scale(0) should drop all terms")
	}
}

func TestLinExprEval(t *testing.T) {
	x, y := Var(0), Var(1)
	e := Sum(CV(2, x), CV(-1, y), C(7))
	v, err := e.Eval([]int64{3, 4}) // x, y are Var(0), Var(1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*3-4+7 {
		t.Errorf("Eval = %d, want 9", v)
	}
	if _, err := e.Eval([]int64{3}); err == nil {
		t.Error("Eval with missing var should error")
	}
}

func TestLinExprAddCommutative(t *testing.T) {
	f := func(ax, ay, ak, bx, by, bk int8) bool {
		x, y := Var(0), Var(1)
		a := Sum(CV(int64(ax), x), CV(int64(ay), y), C(int64(ak)))
		b := Sum(CV(int64(bx), x), CV(int64(by), y), C(int64(bk)))
		l, r := a.Add(b), b.Add(a)
		return l.Coef(x) == r.Coef(x) && l.Coef(y) == r.Coef(y) && l.Const() == r.Const()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromTermsMergesDuplicates(t *testing.T) {
	x := Var(3)
	e := FromTerms(1, struct {
		C int64
		V Var
	}{2, x}, struct {
		C int64
		V Var
	}{5, x})
	if e.Coef(x) != 7 || e.Const() != 1 {
		t.Errorf("FromTerms merge: got %v", e)
	}
}

func TestDivisionHelpers(t *testing.T) {
	cases := []struct {
		a, b, fl, ce int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
		{1, 7, 0, 1},
		{-1, 7, -1, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := ceilDiv(c.a, c.b); got != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, g int64 }{
		{12, 18, 6}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := gcd64(c.a, c.b); got != c.g {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.g)
		}
	}
}

func TestLinExprString(t *testing.T) {
	x, y := Var(0), Var(1)
	cases := []struct {
		e    LinExpr
		want string
	}{
		{C(5), "5"},
		{V(x), "x0"},
		{CV(-1, x), "-x0"},
		{Sum(CV(2, x), CV(-3, y), C(1)), "2*x0 - 3*x1 + 1"},
		{Sum(V(x), C(-4)), "x0 - 4"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
