// Package metrics implements the evaluation metrics of the paper's §4:
// earth mover's distance (1-D Wasserstein) and Jensen–Shannon divergence for
// distributional fidelity (Fig 4 left, Fig 5), MAE and tail (p99) accuracy,
// autocorrelation error for temporal structure, and the downstream
// burst-analysis metrics (burst count / volume / position, Fig 4 right)
// following the burst definition of the underlying datacenter study
// (a sub-interval is in a burst when its volume reaches half the bandwidth).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// EMD computes the exact 1-D earth mover's distance (Wasserstein-1) between
// two empirical samples: ∫ |F_a(x) − F_b(x)| dx over the merged support.
func EMD(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)

	var d float64
	i, j := 0, 0
	na, nb := float64(len(as)), float64(len(bs))
	prev := math.Min(as[0], bs[0])
	for i < len(as) || j < len(bs) {
		var x float64
		switch {
		case i >= len(as):
			x = bs[j]
		case j >= len(bs):
			x = as[i]
		default:
			x = math.Min(as[i], bs[j])
		}
		fa := float64(i) / na
		fb := float64(j) / nb
		d += math.Abs(fa-fb) * (x - prev)
		prev = x
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
	}
	return d
}

// JSD computes the Jensen–Shannon divergence (base-2, in [0,1]) between the
// histograms of two samples over [lo, hi] with the given bin count.
func JSD(a, b []float64, bins int, lo, hi float64) float64 {
	if bins < 1 || hi <= lo || len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	pa := histogram(a, bins, lo, hi)
	pb := histogram(b, bins, lo, hi)
	var d float64
	for i := 0; i < bins; i++ {
		m := (pa[i] + pb[i]) / 2
		d += 0.5*klTerm(pa[i], m) + 0.5*klTerm(pb[i], m)
	}
	// In bits the divergence lies in [0, 1]; disjoint supports sum to 1 up
	// to rounding of the normalized histograms, which can land a ulp above.
	return min(max(d, 0), 1)
}

func klTerm(p, m float64) float64 {
	if p == 0 || m == 0 {
		return 0
	}
	return p * math.Log2(p/m)
}

func histogram(xs []float64, bins int, lo, hi float64) []float64 {
	h := make([]float64, bins)
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h[i]++
	}
	n := float64(len(xs))
	for i := range h {
		h[i] /= n
	}
	return h
}

// MAE is the mean absolute error between aligned series pairs.
func MAE(pred, truth [][]int64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: %d predictions vs %d truths", len(pred), len(truth))
	}
	var sum float64
	n := 0
	for i := range pred {
		if len(pred[i]) != len(truth[i]) {
			return 0, fmt.Errorf("metrics: series %d length mismatch", i)
		}
		for t := range pred[i] {
			d := pred[i][t] - truth[i][t]
			if d < 0 {
				d = -d
			}
			sum += float64(d)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: empty series")
	}
	return sum / float64(n), nil
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation over the sorted sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// P99Error is the relative error of the 99th percentile of the flattened
// predicted values against the truth (the tail metric of Fig 4).
func P99Error(pred, truth [][]int64) float64 {
	pp := Percentile(flatten(pred), 99)
	tp := Percentile(flatten(truth), 99)
	if tp == 0 {
		return math.Abs(pp - tp)
	}
	return math.Abs(pp-tp) / tp
}

func flatten(xs [][]int64) []float64 {
	var out []float64
	for _, s := range xs {
		for _, v := range s {
			out = append(out, float64(v))
		}
	}
	return out
}

// Autocorr computes the lag-k autocorrelation of a series (NaN for constant
// or too-short series).
func Autocorr(series []float64, lag int) float64 {
	n := len(series)
	if lag <= 0 || lag >= n {
		return math.NaN()
	}
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for t := 0; t < n; t++ {
		d := series[t] - mean
		den += d * d
		if t+lag < n {
			num += d * (series[t+lag] - mean)
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// AutocorrError is the mean absolute difference of lag-1 autocorrelations
// across aligned series pairs, skipping pairs where either side is constant.
func AutocorrError(pred, truth [][]int64) float64 {
	var sum float64
	n := 0
	for i := range pred {
		if i >= len(truth) {
			break
		}
		ap := Autocorr(toF(pred[i]), 1)
		at := Autocorr(toF(truth[i]), 1)
		if math.IsNaN(ap) || math.IsNaN(at) {
			continue
		}
		sum += math.Abs(ap - at)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func toF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// Burst is a maximal run of sub-intervals at or above the burst threshold.
type Burst struct {
	Start, End int   // half-open [Start, End)
	Volume     int64 // total volume within the burst
	Peak       int64 // maximum sub-interval volume
}

// FindBursts locates bursts in a fine-grained series given a threshold
// (the datacenter study and the paper's R3 use BW/2).
func FindBursts(series []int64, threshold int64) []Burst {
	var out []Burst
	i := 0
	for i < len(series) {
		if series[i] < threshold {
			i++
			continue
		}
		b := Burst{Start: i, Peak: series[i]}
		for i < len(series) && series[i] >= threshold {
			b.Volume += series[i]
			if series[i] > b.Peak {
				b.Peak = series[i]
			}
			i++
		}
		b.End = i
		out = append(out, b)
	}
	return out
}

// BurstStats aggregates the downstream burst-analysis errors of Fig 4
// (right) over aligned imputed/true series.
type BurstStats struct {
	CountErr    float64 // mean |#bursts_pred − #bursts_true|
	VolumeErr   float64 // mean relative burst-volume error per window
	PositionErr float64 // mean fraction of sub-intervals with wrong burst membership
}

// BurstAnalysis computes BurstStats at the given threshold.
func BurstAnalysis(pred, truth [][]int64, threshold int64) (BurstStats, error) {
	if len(pred) != len(truth) {
		return BurstStats{}, fmt.Errorf("metrics: %d predictions vs %d truths", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return BurstStats{}, fmt.Errorf("metrics: empty input")
	}
	var st BurstStats
	for i := range pred {
		if len(pred[i]) != len(truth[i]) {
			return BurstStats{}, fmt.Errorf("metrics: series %d length mismatch", i)
		}
		bp := FindBursts(pred[i], threshold)
		bt := FindBursts(truth[i], threshold)
		st.CountErr += math.Abs(float64(len(bp) - len(bt)))

		var vp, vt int64
		for _, b := range bp {
			vp += b.Volume
		}
		for _, b := range bt {
			vt += b.Volume
		}
		switch {
		case vt == 0 && vp == 0:
			// perfect
		case vt == 0:
			st.VolumeErr += 1
		default:
			st.VolumeErr += math.Abs(float64(vp-vt)) / float64(vt)
		}

		wrong := 0
		for t := range pred[i] {
			if (pred[i][t] >= threshold) != (truth[i][t] >= threshold) {
				wrong++
			}
		}
		st.PositionErr += float64(wrong) / float64(len(pred[i]))
	}
	n := float64(len(pred))
	st.CountErr /= n
	st.VolumeErr /= n
	st.PositionErr /= n
	return st, nil
}
