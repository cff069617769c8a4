package smt

import "slices"

// lincon is a normalized linear constraint used by the propagation engine:
//
//	Σ terms ≤ rhs        (eq == false)
//	Σ terms  = rhs        (eq == true)
//
// Strict inequalities over integers are tightened during normalization
// (e < 0 becomes e ≤ -1), and ≥ is negated into ≤, so only these two shapes
// remain. NE atoms are handled as disjunctions by the search, never here.
type lincon struct {
	terms []term
	rhs   int64
	eq    bool
}

// normalizeAtom converts an atom into zero or more linear constraints, or
// reports that it must be split as a disjunction (for NE), or that it is
// trivially decided (constant expressions).
//
// Return values: cons is the constraint (valid when kind == normCon);
// kind describes the outcome.
type normKind int

const (
	normCon   normKind = iota // a constraint to propagate
	normTrue                  // trivially satisfied
	normFalse                 // trivially unsatisfiable
	normSplit                 // NE: caller must branch on (< 0) ∨ (> 0)
)

// Term lists the normalization has to rewrite are carved from arena when it
// is non-nil (see carveTerms), else allocated.
func normalizeAtom(a Atom, arena *[]term) (lincon, normKind) {
	e := a.Expr
	if e.IsConst() {
		sat := false
		switch a.Op {
		case OpLE:
			sat = e.k <= 0
		case OpLT:
			sat = e.k < 0
		case OpGE:
			sat = e.k >= 0
		case OpGT:
			sat = e.k > 0
		case OpEQ:
			sat = e.k == 0
		case OpNE:
			sat = e.k != 0
		}
		if sat {
			return lincon{}, normTrue
		}
		return lincon{}, normFalse
	}
	switch a.Op {
	case OpLE: // e ≤ 0  →  terms ≤ -k
		return reduceCon(lincon{terms: e.terms, rhs: -e.k}, arena), normCon
	case OpLT: // e < 0  →  terms ≤ -k - 1
		return reduceCon(lincon{terms: e.terms, rhs: -e.k - 1}, arena), normCon
	case OpGE: // e ≥ 0  →  -terms ≤ k
		return reduceCon(lincon{terms: negTerms(e.terms, arena), rhs: e.k}, arena), normCon
	case OpGT: // e > 0  →  -terms ≤ k - 1
		return reduceCon(lincon{terms: negTerms(e.terms, arena), rhs: e.k - 1}, arena), normCon
	case OpEQ:
		c := lincon{terms: e.terms, rhs: -e.k, eq: true}
		// Divisibility check: if gcd(coefs) does not divide rhs, the
		// equality has no integer solution.
		g := int64(0)
		for _, t := range c.terms {
			g = gcd64(g, abs64(t.C))
		}
		if g > 1 {
			if c.rhs%g != 0 {
				return lincon{}, normFalse
			}
			ts := carveTerms(arena, len(c.terms))
			for i, t := range c.terms {
				ts[i] = term{V: t.V, C: t.C / g}
			}
			c = lincon{terms: ts, rhs: c.rhs / g, eq: true}
		}
		return c, normCon
	case OpNE:
		return lincon{}, normSplit
	}
	panic("smt: bad atom op")
}

// carveTerms returns an n-term slice for a normalized constraint: carved
// from the end of *arena when arena is non-nil, else freshly allocated. A
// carved slice stays valid while the arena is only appended to (growth
// copies into a new array and leaves the old one to the slices already
// carved from it), so an owner that truncates the arena must first be done
// with the constraints carved above the truncation point.
func carveTerms(arena *[]term, n int) []term {
	if arena == nil {
		return make([]term, n)
	}
	a := slices.Grow(*arena, n)
	at := len(a)
	*arena = a[:at+n]
	return a[at : at+n : at+n]
}

func negTerms(ts []term, arena *[]term) []term {
	out := carveTerms(arena, len(ts))
	for i, t := range ts {
		out[i] = term{V: t.V, C: -t.C}
	}
	return out
}

// reduceCon divides an inequality through by the gcd of its coefficients,
// rounding the right-hand side down (sound and tightening for integers).
func reduceCon(c lincon, arena *[]term) lincon {
	g := int64(0)
	for _, t := range c.terms {
		g = gcd64(g, abs64(t.C))
	}
	if g <= 1 {
		return c
	}
	ts := carveTerms(arena, len(c.terms))
	for i, t := range c.terms {
		ts[i] = term{V: t.V, C: t.C / g}
	}
	return lincon{terms: ts, rhs: floorDiv(c.rhs, g), eq: c.eq}
}

// propagateOne applies one constraint to the domain store. For
// Σ c_i x_i ≤ rhs it derives, for each j:
//
//	c_j x_j ≤ rhs − Σ_{i≠j} min(c_i x_i)
//
// and tightens x_j accordingly; equalities propagate both directions. After
// each tightening the sums are recomputed and the scan restarts, so later
// terms always see fresh bounds. It returns false on conflict, and the
// number of bound tightenings it made.
// When changedVars is non-nil, every variable whose bound moves is appended
// to it (the worklist propagator uses this to wake watching constraints).
func propagateOne(d *domains, c *lincon, changedVars *[]Var) (ok bool, tightened int) {
restart:
	// minSum / maxSum of the left-hand side under current bounds.
	var minSum, maxSum int64
	for _, t := range c.terms {
		if t.C > 0 {
			minSum += t.C * d.lo[t.V]
			maxSum += t.C * d.hi[t.V]
		} else {
			minSum += t.C * d.hi[t.V]
			maxSum += t.C * d.lo[t.V]
		}
	}
	if minSum > c.rhs || (c.eq && maxSum < c.rhs) {
		return false, tightened
	}
	for _, t := range c.terms {
		// Contribution of t to minSum / maxSum.
		var tMin, tMax int64
		if t.C > 0 {
			tMin, tMax = t.C*d.lo[t.V], t.C*d.hi[t.V]
		} else {
			tMin, tMax = t.C*d.hi[t.V], t.C*d.lo[t.V]
		}
		// Upper side: c_j x_j ≤ rhs − (minSum − tMin). It moves a bound
		// exactly when it cuts below tMax, so the divide runs only then
		// (most wake-ups of a constraint tighten nothing).
		ub := c.rhs - (minSum - tMin)
		var ch, empty bool
		if ub < tMax {
			if t.C > 0 {
				ch, empty = d.tightenHi(t.V, floorDiv(ub, t.C))
			} else {
				ch, empty = d.tightenLo(t.V, ceilDiv(ub, t.C))
			}
		}
		if !ch && c.eq {
			// Lower side: c_j x_j ≥ rhs − (maxSum − tMax), which moves a
			// bound exactly when it rises above tMin.
			if lb := c.rhs - (maxSum - tMax); lb > tMin {
				if t.C > 0 {
					ch, empty = d.tightenLo(t.V, ceilDiv(lb, t.C))
				} else {
					ch, empty = d.tightenHi(t.V, floorDiv(lb, t.C))
				}
			}
		}
		if empty {
			return false, tightened
		}
		if ch {
			if changedVars != nil {
				*changedVars = append(*changedVars, t.V)
			}
			tightened++
			goto restart
		}
	}
	return true, tightened
}

// conSatisfiedAtFixpoint reports whether the constraint is certainly
// satisfied when every variable is fixed (used as a final verification).
func conSatisfiedFixed(d *domains, c *lincon) bool {
	var sum int64
	for _, t := range c.terms {
		sum += t.C * d.lo[t.V]
	}
	if c.eq {
		return sum == c.rhs
	}
	return sum <= c.rhs
}
