package nn

// accumBlock4 is accumBlock4Generic's arithmetic in SSE: four output columns
// per MULPS/ADDPS step and a scalar MULSS/ADDSS tail for len(y) % 4. Every
// output element sees the same binary32 multiplies and adds, in the same
// order and without FMA, as the Go loop (the packed lanes are independent
// columns), so the results are bit-identical. SSE2 is part of the amd64
// baseline, so there is nothing to detect at run time. The rows are sliced
// here, as in the Go loop, so a short w panics in Go before the assembly
// reads it.
func accumBlock4(y, w []float32, stride int, x0, x1, x2, x3 float32) {
	n := len(y)
	r0 := w[:n]
	r1 := w[stride : stride+n]
	r2 := w[2*stride : 2*stride+n]
	r3 := w[3*stride : 3*stride+n]
	if n == 0 {
		return
	}
	accumRows4SSE(&y[0], &r0[0], &r1[0], &r2[0], &r3[0], n, x0, x1, x2, x3)
}

// accumRows4SSE is implemented in gemm_amd64.s. Each row pointer addresses
// n floats.
//
//go:noescape
func accumRows4SSE(y, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)
