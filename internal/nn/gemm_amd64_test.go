package nn

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAccumBlock4MatchesGeneric pins the SSE kernel to the pure-Go loop bit
// for bit: every length from 0 to 67 (each residue mod 4 of the packed loop
// and its scalar tail), row strides larger than the row, slices starting 0–3
// floats into their backing arrays (unaligned loads and stores), and inputs
// of ±0, subnormals, ±Inf and products that overflow. Guard cells around y
// must come back untouched. NaN results are compared as NaN: the payload
// the hardware propagates is not part of the contract.
func TestAccumBlock4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), // smallest and largest-magnitude subnormals
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, 1e30, -1e30, // products of these overflow
	}
	val := func() float32 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float32(rng.NormFloat64())
	}
	const guard = 3
	// Finite, so a stray write of sentinel + products changes its bits (a
	// NaN sentinel would come back unchanged from a stray add).
	const sentinel = float32(1234.5)
	for n := 0; n <= 67; n++ {
		for _, extra := range []int{0, 1, 5} {
			stride := n + extra
			for off := 0; off < 4; off++ {
				w := make([]float32, off+3*stride+n)
				for i := range w {
					w[i] = val()
				}
				xs := [4]float32{val(), val(), val(), val()}
				buf := make([]float32, off+guard+n+guard)
				for i := range buf {
					buf[i] = sentinel
				}
				y := buf[off+guard : off+guard+n]
				for i := range y {
					y[i] = val()
				}
				want := append([]float32(nil), y...)
				blk := w[off:]
				accumBlock4Generic(want, blk, stride, xs[0], xs[1], xs[2], xs[3])
				accumBlock4(y, blk, stride, xs[0], xs[1], xs[2], xs[3])
				for j := range y {
					g, e := y[j], want[j]
					if g != g && e != e {
						continue
					}
					if math.Float32bits(g) != math.Float32bits(e) {
						t.Fatalf("n=%d stride=%d off=%d j=%d: got %v (%#08x), generic %v (%#08x)",
							n, stride, off, j, g, math.Float32bits(g), e, math.Float32bits(e))
					}
				}
				for i, c := range buf {
					if (i < off+guard || i >= off+guard+n) && math.Float32bits(c) != math.Float32bits(sentinel) {
						t.Fatalf("n=%d stride=%d off=%d: guard cell %d overwritten with %v", n, stride, off, i, c)
					}
				}
			}
		}
	}
}

// BenchmarkAccumBlock4 times one 4-row block fold at the decode GEMM widths
// (Dim 64 and the MLP's 4·Dim), SSE kernel against the pure-Go loop, and
// reports ns per multiply-accumulate.
func BenchmarkAccumBlock4(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{64, 256} {
		w, y := make([]float32, 4*n), make([]float32, n)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		// Small weights keep y bounded over many iterations.
		const x0, x1, x2, x3 = 1e-3, -1e-3, 2e-3, -2e-3
		kernels := []struct {
			name string
			fn   func(y, w []float32, stride int, x0, x1, x2, x3 float32)
		}{{"sse", accumBlock4}, {"generic", accumBlock4Generic}}
		for _, k := range kernels {
			b.Run("n="+strconv.Itoa(n)+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(y, w, n, x0, x1, x2, x3)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(4*n), "ns/MAC")
			})
		}
	}
}
