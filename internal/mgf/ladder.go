package mgf

import (
	"math"
	"math/cmplx"
)

// This file implements the shared-grid quadrature ladder: the convolution
// tail of a Sum evaluated through per-law state that is a pure function of
// the law, extended monotonically across abscissae, and never rebuilt. The
// per-abscissa Simpson scheme in conv.go ties the panel width h = x/n to the
// abscissa, so no two abscissae of a bracket walk share a single grid point;
// here h is derived from the law alone (the same 64-panels-per-decay-length
// density, with the 512/32768 clamps expressed in panels-per-unit), so the
// integration prefix [0, n·h] of every abscissa is a prefix of every later
// one and all Simpson work is shared.
//
// Two evaluation regimes split the A-term x B-term pairs of the integrand
// pdfA(u)·TailB(x-u):
//
//   - Well-separated pairs go through an exact pole-pair closed form. With
//     a' and b' the one-term sub-laws, conditioning on whether X ~ a' exceeds
//     x gives
//
//	int_0^x pdf_a'(u) Tail_b'(x-u) du = Tail_{a'⊗b'}(x) - mass(b')·Tail_a'(x),
//
//     and a'⊗b' is one Appendix-A partial-fraction product, computed once at
//     build time. This is exactly the regime where Mul is well-conditioned
//     (pairMulError below the budget), so the expansion is safe — and it
//     removes from the grid the steep cross terms (e.g. a sharp upstream pole
//     against slow downstream poles) that the per-abscissa scheme resolves
//     worst.
//
//   - Crowded pairs — near-coincident poles, where partial fractions blow
//     up — stay on the quadrature grid, factored so the grid is shareable:
//     expanding (x-u)^r binomially and e^{-q(x-u)} = e^{-qx}·e^{qu} turns the
//     pair contribution into a combination of moments
//
//	M_l(x) = int_0^x pdfS(u)·u^l·e^{qu} du,  l = 0..order(b')-1,
//
//     whose integrands do not depend on x at all. Each moment is a composite
//     Simpson sum over the shared grid plus a 2-panel correction on the
//     partial panel [n·h, x]. The integrand's exponential factor is the
//     *residual* e^{(q-p)u} — near 1 for crowded pairs — so the recurrences
//     are underflow/overflow-safe precisely where this path is used. Prefix
//     parity sums are checkpointed every expResetStride points (the same
//     cadence as the exact cmplx.Exp re-anchors), so evaluating at any
//     abscissa replays at most one block from the nearest checkpoint.
//
// Both regimes are pure functions of (law, x): the ladder changes the cost
// of an evaluation with the visit order, never its value, which is what
// keeps warm==cold and jobs-invariance bit-identical on this path.

const (
	// ladderMinPanels/ladderMaxPanels are conv.go's 512/32768 panel clamps
	// in panels-per-unit form: below the floor the per-abscissa path is at
	// least as accurate and already cheap, above the ceiling it is coarser
	// (and the tail has long since underflowed); both fall back.
	ladderMinPanels = 512
	ladderMaxPanels = 32768
	// ladderCkStride is the checkpoint (and exact re-anchor) cadence of the
	// prefix sums, matching expResetStride's error budget: a replayed block
	// multiplies at most stride rounding errors onto an exact anchor.
	ladderCkStride = expResetStride
	// ladderMaxLevels caps the Erlang order of a B term the moment
	// recurrence carries; a law with a higher order takes the per-abscissa
	// path. The model's B = Mul(Du, P) keeps P's pole at beta with order
	// K-1, so a Sum RTT law with K >= 18 lands there whenever W's poles
	// crowd beta (TestTailPathByErlangOrder pins K = 2..30 at rho = 0.5).
	ladderMaxLevels = 16
	// ladderMaxPartners caps the A terms of one crowded channel (stack
	// arrays in the hot walk).
	ladderMaxPartners = 32
	// cfPairBudget is the absolute tail error a closed-form pair may commit
	// (pairMulError estimate): three decades under the 1e-12 equivalence
	// gate, so the whole closed part stays far inside it.
	cfPairBudget = 1e-13
	// ladderMaxExp bounds the residual exponent (q-p)·x of any grid pair:
	// beyond it the moment integrand could overflow, so covers() refuses
	// and the per-abscissa path (which never forms the residual) takes over.
	ladderMaxExp = 690.0
	// ladderRecBudget bounds the estimated rounding error of the binomial
	// recombination (alternating sum of moment terms). Crowded pairs keep
	// the amplification near Stirling-bounded ~O(1); a pathological channel
	// (wide "crowded" gap with large masses at large q·x) trips this and
	// falls back for that abscissa.
	ladderRecBudget = 1e-13
)

// ladderChannel is one crowded B term with its A-side partners: everything
// needed to accumulate the moments M_l on the shared grid.
type ladderChannel struct {
	q      complex128   // B-term pole
	wr     []complex128 // wr[r] = (q^r/r!)·sum_{j>=r} B_j — tail ladder resummed by power
	levels int          // number of moment levels = Erlang order of the B term

	poles []complex128   // A-partner poles p
	steps []complex128   // per-partner residual step e^{(q-p)h}
	coefs [][]complex128 // per-partner Erlang coefficient ladders
	g00   complex128     // moment integrand at u=0, level 0: sum coef[0]·p

	maxResid float64 // max Re(q-p) over partners: growth rate of the integrand

	// ck[m] holds the Simpson parity sums over grid points 1..m·stride for
	// every level: first levels values are the odd-index (weight 4) sums,
	// the next levels the even-index (weight 2, endpoint included) sums.
	ck [][]complex128
}

// ladder is the per-law shared-grid state cached in a Workspace. have/fp/
// lawA/lawB form the generation tag: any law change — even to a law with a
// colliding fingerprint — rebuilds, because the stored clones are compared
// value-exactly on every lookup.
type ladder struct {
	have bool   // tag fields valid (a build was attempted for fp)
	ok   bool   // ladder usable (false: law shape unsupported, always fall back)
	fp   uint64 // fingerprint of (lawA, lawB)
	lawA Mix    // deep copies of the tagged law, for exact invalidation
	lawB Mix

	h        float64 // shared panel width 1/(64·sharpestDecay(A))
	closed   Mix     // head terms + every closed-form pair, one Mix built at tag time
	channels []ladderChannel
	xMaxSafe float64 // covers() ceiling from the residual-exponent guard
}

// mixEqual reports value-exact equality (float bits, term order).
func mixEqual(a, b Mix) bool {
	if a.Atom != b.Atom || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i].Pole != b.Terms[i].Pole || len(a.Terms[i].Coef) != len(b.Terms[i].Coef) {
			return false
		}
		for j := range a.Terms[i].Coef {
			if a.Terms[i].Coef[j] != b.Terms[i].Coef[j] {
				return false
			}
		}
	}
	return true
}

// lawFingerprint hashes every float bit of (a, b) — FNV-1a over the word
// stream. It is a fast reject; lookups confirm with mixEqual.
func lawFingerprint(a, b Mix) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	word := func(v uint64) {
		h ^= v
		h *= prime
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	c := func(v complex128) { f(real(v)); f(imag(v)) }
	hashMix := func(m Mix) {
		f(m.Atom)
		word(uint64(len(m.Terms)))
		for _, t := range m.Terms {
			c(t.Pole)
			word(uint64(len(t.Coef)))
			for _, cf := range t.Coef {
				c(cf)
			}
		}
	}
	hashMix(a)
	hashMix(b)
	return h
}

// pairMulError is EstimateMulError restricted to one cross pair: the
// absolute coefficient error the Appendix-A expansion of ta⊗tb would commit.
func pairMulError(ta, tb Term) float64 {
	if samePole(ta.Pole, tb.Pole) {
		return 0 // exact Erlang-order merge, no partial fractions
	}
	const eps = 2.220446049250313e-16
	gap := cmplx.Abs(ta.Pole - tb.Pole)
	ra := cmplx.Abs(ta.Pole) / gap
	rb := cmplx.Abs(tb.Pole) / gap
	var ma, mb float64
	for _, c := range ta.Coef {
		ma += cmplx.Abs(c)
	}
	for _, c := range tb.Coef {
		mb += cmplx.Abs(c)
	}
	ord := float64(len(ta.Coef) + len(tb.Coef))
	amp := ma * mb * (math.Pow(math.Max(rb, 1), ord) + math.Pow(math.Max(ra, 1), ord))
	return eps * amp
}

// ladderFor returns the ladder for the law (A=a, B=b), building it if the
// workspace's cached one is tagged for a different law. nil means the law
// shape is unsupported and the caller must use the per-abscissa path.
func (ws *Workspace) ladderFor(a, b Mix, sharp float64) *ladder {
	ld := &ws.lad
	fp := lawFingerprint(a, b)
	if ld.have && ld.fp == fp && mixEqual(ld.lawA, a) && mixEqual(ld.lawB, b) {
		if !ld.ok {
			return nil
		}
		return ld
	}
	ld.build(a, b, sharp, fp, ws)
	if !ld.ok {
		return nil
	}
	return ld
}

// build tags ld for (a, b) and constructs the closed part and the crowded
// channels. On unsupported shapes it leaves ok=false (the tag still set, so
// the rejection is remembered and not re-derived per abscissa).
func (ld *ladder) build(a, b Mix, sharp float64, fp uint64, ws *Workspace) {
	ld.have, ld.ok = true, false
	ld.fp = fp
	ld.lawA, ld.lawB = a.Clone(), b.Clone()
	ld.closed = Mix{}
	ld.channels = ld.channels[:0]
	if !(sharp > 0) {
		return
	}
	ld.h = 1 / (64 * sharp)
	for _, t := range a.Terms {
		if !(real(t.Pole) > 0) {
			return // not a decaying density: leave it to the generic path
		}
	}
	for _, t := range b.Terms {
		if !(real(t.Pole) > 0) {
			return
		}
	}

	// Head terms of Sum.Tail: A.Atom·TailB(x) + TailA(x), folded into the
	// closed mix so one Mix.Tail serves the whole non-grid part.
	for _, tb := range b.Terms {
		if a.Atom != 0 {
			ld.closed.AddTerm(tb.Pole, scaleCoef(tb.Coef, complex(a.Atom, 0), ws))
		}
	}
	for _, ta := range a.Terms {
		ld.closed.AddTerm(ta.Pole, ta.Coef)
	}

	ld.xMaxSafe = math.Inf(1)
	for _, tb := range b.Terms {
		var partners []int
		for i, ta := range a.Terms {
			if pairMulError(ta, tb) < cfPairBudget {
				// Closed form: Tail_{ta⊗tb}(x) - mass(tb)·Tail_ta(x).
				pair := mulWS(Mix{Terms: []Term{ta}}, Mix{Terms: []Term{tb}}, ws)
				for _, t := range pair.Terms {
					ld.closed.AddTerm(t.Pole, t.Coef)
				}
				var massB complex128
				for _, c := range tb.Coef {
					massB += c
				}
				ld.closed.AddTerm(ta.Pole, scaleCoef(ta.Coef, -massB, ws))
				continue
			}
			partners = append(partners, i)
		}
		if len(partners) == 0 {
			continue
		}
		if len(tb.Coef) > ladderMaxLevels || len(partners) > ladderMaxPartners {
			return // unsupported shape: remembered as ok=false
		}
		ch := ladderChannel{q: tb.Pole, levels: len(tb.Coef)}
		// wr[r] = (q^r/r!)·sum_{j>=r} B_j, built with a running q^r/r!.
		ch.wr = make([]complex128, ch.levels)
		qr := complex(1, 0)
		for r := 0; r < ch.levels; r++ {
			var br complex128
			for j := r; j < len(tb.Coef); j++ {
				br += tb.Coef[j]
			}
			ch.wr[r] = br * qr
			qr *= divRe(tb.Pole, float64(r+1))
		}
		ch.maxResid = math.Inf(-1)
		for _, i := range partners {
			ta := a.Terms[i]
			ch.poles = append(ch.poles, ta.Pole)
			ch.steps = append(ch.steps, cmplx.Exp((tb.Pole-ta.Pole)*complex(ld.h, 0)))
			ch.coefs = append(ch.coefs, ta.Coef)
			ch.g00 += ta.Coef[0] * ta.Pole
			if r := real(tb.Pole - ta.Pole); r > ch.maxResid {
				ch.maxResid = r
			}
		}
		ch.ck = append(ch.ck, make([]complex128, 2*ch.levels)) // checkpoint 0: empty sums
		if ch.maxResid > 0 {
			if lim := ladderMaxExp / ch.maxResid; lim < ld.xMaxSafe {
				ld.xMaxSafe = lim
			}
		}
		ld.channels = append(ld.channels, ch)
	}
	ld.ok = true
}

// tailAt evaluates the full Sum tail at x through the ladder. ok=false means
// x is outside the ladder's regime (panel floor/ceiling, residual-exponent
// guard, or a recombination-conditioning trip) and the caller must fall back;
// both the value and the refusal are pure functions of (law, x).
func (ld *ladder) tailAt(x float64) (float64, bool) {
	n := int(x / ld.h)
	if n < ladderMinPanels || n > ladderMaxPanels || x > ld.xMaxSafe {
		return 0, false
	}
	n &^= 1 // even panel count for the composite Simpson prefix
	w := x - float64(n)*ld.h
	for w < 0 { // float quotient rounded up past x: step back a panel pair
		n -= 2
		w = x - float64(n)*ld.h
	}
	v := ld.closed.Tail(x)
	for i := range ld.channels {
		cv, ok := ld.channels[i].eval(ld.h, x, n, w)
		if !ok {
			return 0, false
		}
		v += real(cv)
	}
	return v, true
}

// grow extends the checkpointed prefix sums to cover grid index n. Each new
// block anchors the residual exponentials exactly at its head and replays
// stride points — the identical arithmetic eval's tail replay uses, so a
// value at index i has the same bits whether the ladder grew in one call or
// many.
func (ch *ladderChannel) grow(h float64, n int) {
	need := n / ladderCkStride
	for len(ch.ck)-1 < need {
		b := len(ch.ck) - 1
		var s4, s2 [ladderMaxLevels]complex128
		prev := ch.ck[b]
		for l := 0; l < ch.levels; l++ {
			s4[l], s2[l] = prev[l], prev[ch.levels+l]
		}
		ch.walk(h, b*ladderCkStride, (b+1)*ladderCkStride, &s4, &s2, nil)
		next := make([]complex128, 2*ch.levels)
		for l := 0; l < ch.levels; l++ {
			next[l], next[ch.levels+l] = s4[l], s2[l]
		}
		ch.ck = append(ch.ck, next)
	}
}

// walk accumulates the moment integrand g_l(i) = pdfS(h·i)·(h·i)^l·e^{q·h·i}
// over grid indices from+1..to into the parity sums, anchoring the residual
// exponentials e^{(q-p)·h·i} exactly at index `from`. gEnd, when non-nil,
// receives g_l(to).
func (ch *ladderChannel) walk(h float64, from, to int, s4, s2, gEnd *[ladderMaxLevels]complex128) {
	if to <= from {
		return
	}
	var es [ladderMaxPartners]complex128
	for t := range ch.poles {
		es[t] = cmplx.Exp((ch.q - ch.poles[t]) * complex(h*float64(from), 0))
	}
	for i := from + 1; i <= to; i++ {
		u := h * float64(i)
		var base complex128
		for t := range ch.poles {
			es[t] *= ch.steps[t]
			p := ch.poles[t]
			f := p * es[t]
			coefs := ch.coefs[t]
			last := len(coefs) - 1
			pu := p * complex(u, 0)
			for k, c := range coefs {
				base += c * f
				if k < last {
					f *= divRe(pu, float64(k+1))
				}
			}
		}
		dst := s2
		if i&1 == 1 {
			dst = s4
		}
		ul := complex(1, 0)
		for l := 0; l < ch.levels; l++ {
			g := base * ul
			dst[l] += g
			if gEnd != nil && i == to {
				gEnd[l] = g
			}
			ul *= complex(u, 0)
		}
	}
}

// direct evaluates the moment integrand at an arbitrary (off-grid) abscissa:
// the remainder panel's interior and endpoint, and the prefix endpoint when
// it falls exactly on a checkpoint.
func (ch *ladderChannel) direct(u float64, g *[ladderMaxLevels]complex128) {
	var base complex128
	for t := range ch.poles {
		p := ch.poles[t]
		e := cmplx.Exp((ch.q - p) * complex(u, 0))
		f := p * e
		coefs := ch.coefs[t]
		last := len(coefs) - 1
		pu := p * complex(u, 0)
		for k, c := range coefs {
			base += c * f
			if k < last {
				f *= divRe(pu, float64(k+1))
			}
		}
	}
	ul := complex(1, 0)
	for l := 0; l < ch.levels; l++ {
		g[l] = base * ul
		ul *= complex(u, 0)
	}
}

// eval returns this channel's contribution to the convolution integral at x:
// moments from the shared prefix (nearest checkpoint + at most one replayed
// block) plus a 2-panel Simpson correction on [n·h, x], recombined through
// the binomial expansion of (x-u)^r. ok=false reports a conditioning trip in
// the alternating recombination (see ladderRecBudget).
func (ch *ladderChannel) eval(h, x float64, n int, w float64) (complex128, bool) {
	ch.grow(h, n)
	c := n / ladderCkStride
	var s4, s2, gEnd [ladderMaxLevels]complex128
	prev := ch.ck[c]
	for l := 0; l < ch.levels; l++ {
		s4[l], s2[l] = prev[l], prev[ch.levels+l]
	}
	if n > c*ladderCkStride {
		ch.walk(h, c*ladderCkStride, n, &s4, &s2, &gEnd)
	} else {
		ch.direct(h*float64(n), &gEnd)
	}
	var m [ladderMaxLevels]complex128
	h3 := complex(h/3, 0)
	for l := 0; l < ch.levels; l++ {
		var g0 complex128
		if l == 0 {
			g0 = ch.g00
		}
		// Composite Simpson over [0, n·h]: endpoints + 4·odd + 2·interior
		// even; s2 includes the endpoint, hence the -gEnd.
		m[l] = h3 * (g0 + 4*s4[l] + 2*s2[l] - gEnd[l])
	}
	if w > 0 {
		var gm, gx [ladderMaxLevels]complex128
		ch.direct(float64(n)*h+w/2, &gm)
		ch.direct(x, &gx)
		w6 := complex(w/6, 0)
		for l := 0; l < ch.levels; l++ {
			m[l] += w6 * (gEnd[l] + 4*gm[l] + gx[l])
		}
	}
	// sum_l (-1)^l M_l · sum_{r>=l} wr[r]·C(r,l)·x^{r-l}, then ·e^{-qx}.
	var sum complex128
	var mag float64
	sign := 1.0
	for l := 0; l < ch.levels; l++ {
		wl := ch.wr[l] // r = l: C(l,l)=1, x^0
		binom, xp := 1.0, 1.0
		for r := l + 1; r < ch.levels; r++ {
			binom *= float64(r) / float64(r-l)
			xp *= x
			wl += ch.wr[r] * complex(binom*xp, 0)
		}
		term := m[l] * wl
		if sign > 0 {
			sum += term
		} else {
			sum -= term
		}
		mag += math.Abs(real(term)) + math.Abs(imag(term))
		sign = -sign
	}
	eqx := cmplx.Exp(-ch.q * complex(x, 0))
	const eps = 2.220446049250313e-16
	if mag*eps*cmplx.Abs(eqx) > ladderRecBudget {
		return 0, false
	}
	return eqx * sum, true
}
