package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := NewMat(2, 2)
	MatMul(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.W[i] != v {
			t.Errorf("c[%d] = %v, want %v", i, c.W[i], v)
		}
	}
}

func TestMatMulDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch should panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2))
}

// naive reference implementations for cross-checks.
func refMatMul(a, b *Mat) *Mat {
	c := NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			var s float32
			for k := 0; k < a.C; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func transpose(m *Mat) *Mat {
	out := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestMatMulVariantsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewMat(n, k)
		a.Randn(rng, 1)
		b := NewMat(k, m)
		b.Randn(rng, 1)

		c := NewMat(n, m)
		MatMul(c, a, b)
		want := refMatMul(a, b)
		for i := range c.W {
			if !approxEq(float64(c.W[i]), float64(want.W[i]), 1e-4) {
				t.Fatalf("MatMul mismatch at %d: %v vs %v", i, c.W[i], want.W[i])
			}
		}

		// dst += A·Bᵀ
		bt := NewMat(m, k)
		bt.Randn(rng, 1)
		c2 := NewMat(n, m)
		MatMulAddTransB(c2, a, bt)
		want2 := refMatMul(a, transpose(bt))
		for i := range c2.W {
			if !approxEq(float64(c2.W[i]), float64(want2.W[i]), 1e-4) {
				t.Fatalf("MatMulAddTransB mismatch at %d", i)
			}
		}

		// dst += Aᵀ·B
		at := NewMat(k, n)
		at.Randn(rng, 1)
		c3 := NewMat(n, m)
		b3 := NewMat(k, m)
		b3.Randn(rng, 1)
		MatMulAddTransA(c3, at, b3)
		want3 := refMatMul(transpose(at), b3)
		for i := range c3.W {
			if !approxEq(float64(c3.W[i]), float64(want3.W[i]), 1e-4) {
				t.Fatalf("MatMulAddTransA mismatch at %d", i)
			}
		}
	}
}

func TestAddRowSumRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRow(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if m.W[i] != want[i] {
			t.Errorf("AddRow[%d] = %v", i, m.W[i])
		}
	}
	v := make([]float32, 3)
	SumRowsInto(v, m)
	if v[0] != 25 || v[1] != 47 || v[2] != 69 {
		t.Errorf("SumRowsInto = %v", v)
	}
}

func TestSoftmaxRow(t *testing.T) {
	x := []float32{1, 2, 3}
	SoftmaxRow(x)
	var sum float32
	for _, v := range x {
		sum += v
	}
	if !approxEq(float64(sum), 1, 1e-5) {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Errorf("softmax not monotone: %v", x)
	}
	// Extreme values must not overflow.
	y := []float32{1000, -1000, 999}
	SoftmaxRow(y)
	for _, v := range y {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Errorf("softmax overflow: %v", y)
		}
	}
}

// numGrad computes a central-difference numeric gradient of f at x[i].
func numGrad(f func() float64, x []float32, i int) float64 {
	const h = 1e-3
	orig := x[i]
	x[i] = orig + h
	fp := f()
	x[i] = orig - h
	fm := f()
	x[i] = orig
	return (fp - fm) / (2 * h)
}

func TestSoftmaxBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 5
	x := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		dy[i] = float32(rng.NormFloat64())
	}
	// loss = <dy, softmax(x)>
	loss := func() float64 {
		p := append([]float32(nil), x...)
		SoftmaxRow(p)
		var s float64
		for i := range p {
			s += float64(dy[i] * p[i])
		}
		return s
	}
	p := append([]float32(nil), x...)
	SoftmaxRow(p)
	dx := make([]float32, n)
	SoftmaxBackwardRow(dx, dy, p)
	for i := 0; i < n; i++ {
		want := numGrad(loss, x, i)
		if !approxEq(float64(dx[i]), want, 1e-2) {
			t.Errorf("softmax grad[%d] = %v, numeric %v", i, dx[i], want)
		}
	}
}

func TestLayerNormNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 6
	x := make([]float32, n)
	gamma := make([]float32, n)
	beta := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		gamma[i] = 1 + float32(rng.NormFloat64())*0.1
		beta[i] = float32(rng.NormFloat64()) * 0.1
		dy[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		out := make([]float32, n)
		LayerNormRow(out, x, gamma, beta)
		var s float64
		for i := range out {
			s += float64(dy[i] * out[i])
		}
		return s
	}
	out := make([]float32, n)
	mean, invStd := LayerNormRow(out, x, gamma, beta)
	dx := make([]float32, n)
	dgamma := make([]float32, n)
	dbeta := make([]float32, n)
	LayerNormBackwardRow(dx, dy, x, mean, invStd, gamma, dgamma, dbeta)
	for i := 0; i < n; i++ {
		if want := numGrad(loss, x, i); !approxEq(float64(dx[i]), want, 2e-2) {
			t.Errorf("LN dx[%d] = %v, numeric %v", i, dx[i], want)
		}
		if want := numGrad(loss, gamma, i); !approxEq(float64(dgamma[i]), want, 2e-2) {
			t.Errorf("LN dgamma[%d] = %v, numeric %v", i, dgamma[i], want)
		}
		if want := numGrad(loss, beta, i); !approxEq(float64(dbeta[i]), want, 2e-2) {
			t.Errorf("LN dbeta[%d] = %v, numeric %v", i, dbeta[i], want)
		}
	}
}

func TestGELUNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 8
	x := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64()) * 2
		dy[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		out := make([]float32, n)
		GELU(out, x)
		var s float64
		for i := range out {
			s += float64(dy[i] * out[i])
		}
		return s
	}
	dx := make([]float32, n)
	GELUBackward(dx, dy, x)
	for i := 0; i < n; i++ {
		if want := numGrad(loss, x, i); !approxEq(float64(dx[i]), want, 1e-2) {
			t.Errorf("GELU dx[%d] = %v, numeric %v", i, dx[i], want)
		}
	}
}

func TestGELUValues(t *testing.T) {
	out := make([]float32, 3)
	GELU(out, []float32{0, 10, -10})
	if out[0] != 0 {
		t.Errorf("gelu(0) = %v", out[0])
	}
	if !approxEq(float64(out[1]), 10, 1e-3) {
		t.Errorf("gelu(10) = %v", out[1])
	}
	if !approxEq(float64(out[2]), 0, 1e-3) {
		t.Errorf("gelu(-10) = %v", out[2])
	}
}

func TestAxpyDotScale(t *testing.T) {
	y := []float32{1, 2}
	Axpy(y, 2, []float32{3, 4})
	if y[0] != 7 || y[1] != 10 {
		t.Errorf("Axpy = %v", y)
	}
	if d := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); d != 32 {
		t.Errorf("Dot = %v", d)
	}
	x := []float32{2, 4}
	Scale(x, 0.5)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("Scale = %v", x)
	}
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At")
	}
	r := m.Row(1)
	if r[2] != 5 {
		t.Error("Row view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone must not alias")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero")
	}
}

// BenchmarkGELU is the baseline for a cheaper GELU: ns per element over 256
// inputs drawn from a normal distribution with mean 0 and standard deviation
// 2, a spread like the MLP pre-activations'. Each element is one float64
// math.Tanh.
func BenchmarkGELU(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(1))
	x, out := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i] = float32(2 * rng.NormFloat64())
	}
	for i := 0; i < b.N; i++ {
		GELU(out, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
}
