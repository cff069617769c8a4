package nn

import "repro/internal/tensor"

// This file holds the decode kernels shared by Session.Append (rows = 1) and
// BatchSession.AppendBatch (one row per lane): the GEMMs for the attention
// and MLP projections and the tied LM head. Each output element has one
// accumulator fed in ascending input-row order, so a row's result does not
// depend on how many other rows share the call.

// matLinear is the batched form of vecLinear: Y = X·W + b for X [rows, in]
// and Y [rows, out], both compacted row-major. The loop order is weight
// block outer, lane inner: each 4-row block of W is loaded once and folded
// into every lane before moving on, so W streams from memory once per call
// instead of once per lane. Within a lane the accumulation order is exactly
// vecLinear's (same 4-wide blocks via accumBlock4, same tail), so each
// output row is bit-identical to a vecLinear call on that row alone.
func matLinear(y, x, w, b []float32, in, out, rows int) {
	for r := 0; r < rows; r++ {
		copy(y[r*out:(r+1)*out], b[:out])
	}
	p := 0
	for ; p+4 <= in; p += 4 {
		blk := w[p*out:]
		for r := 0; r < rows; r++ {
			xr := x[r*in:]
			accumBlock4(y[r*out:(r+1)*out], blk, out, xr[p], xr[p+1], xr[p+2], xr[p+3])
		}
	}
	for ; p < in; p++ {
		row := w[p*out : (p+1)*out]
		for r := 0; r < rows; r++ {
			xv := x[r*in+p]
			yr := y[r*out : (r+1)*out]
			for j := range yr {
				yr[j] += xv * row[j]
			}
		}
	}
}

// matLinear3 is the batched form of vecLinear3: the three attention
// projections for all lanes in one pass, with each 4-row block of Wq/Wk/Wv
// read once per token step. Per lane the q/k/v accumulation order matches
// vecLinear3 exactly, so the outputs are bit-identical to the single-row
// kernel.
func matLinear3(q, k, v, x, wq, wk, wv, bq, bk, bv []float32, in, out, rows int) {
	for r := 0; r < rows; r++ {
		copy(q[r*out:(r+1)*out], bq[:out])
		copy(k[r*out:(r+1)*out], bk[:out])
		copy(v[r*out:(r+1)*out], bv[:out])
	}
	p := 0
	for ; p+4 <= in; p += 4 {
		bq4, bk4, bv4 := wq[p*out:], wk[p*out:], wv[p*out:]
		for r := 0; r < rows; r++ {
			xr := x[r*in:]
			x0, x1, x2, x3 := xr[p], xr[p+1], xr[p+2], xr[p+3]
			accumBlock4(q[r*out:(r+1)*out], bq4, out, x0, x1, x2, x3)
			accumBlock4(k[r*out:(r+1)*out], bk4, out, x0, x1, x2, x3)
			accumBlock4(v[r*out:(r+1)*out], bv4, out, x0, x1, x2, x3)
		}
	}
	for ; p < in; p++ {
		rq := wq[p*out : (p+1)*out]
		rk := wk[p*out : (p+1)*out]
		rv := wv[p*out : (p+1)*out]
		for r := 0; r < rows; r++ {
			xv := x[r*in+p]
			qr := q[r*out : (r+1)*out]
			kr := k[r*out : (r+1)*out]
			vr := v[r*out : (r+1)*out]
			for j := range qr {
				qr[j] += xv * rq[j]
				kr[j] += xv * rk[j]
				vr[j] += xv * rv[j]
			}
		}
	}
}

// headLogits computes the tied-head logits ⟨ln_r, tok_v⟩ for rows final
// layer-norm rows, vocab-outer so each embedding row is streamed once for
// all rows. lanes maps compacted row r to its logits row (nil = identity,
// the solo path).
func headLogits(logits, ln, tokW []float32, lanes []int, d, vocab, rows int) {
	for vv := 0; vv < vocab; vv++ {
		wv := tokW[vv*d : (vv+1)*d]
		for r := 0; r < rows; r++ {
			dst := r
			if lanes != nil {
				dst = lanes[r]
			}
			logits[dst*vocab+vv] = tensor.Dot(ln[r*d:(r+1)*d], wv)
		}
	}
}
