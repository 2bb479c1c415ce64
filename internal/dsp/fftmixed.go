package dsp

import (
	"math"
	"sync"
)

// Mixed-radix complex FFT for the lengths Plan4 cannot take. The MDCT codec
// needs a 480-point transform (480 = 4·4·2·3·5) on every chat frame, and
// FFT/IFFT promise every length; both run here.
//
// The transform is decimation-in-time Cooley-Tukey over the factorisation
// n = p₀·p₁·…: radix-4 factors first, then 2, 3, 5, then whatever primes
// remain. A gather pass places the input in digit-reversed order, then one
// pass per factor, innermost first, combines p sub-transforms of length m
// into one of length p·m. Radix 2, 3, 4 and 5 have unrolled butterflies;
// any other prime p runs a direct O(p²) DFT per column, so a prime length
// costs O(n²) — correct, and no worse than the naive sum.
//
// mixedTables is the immutable, size-dependent part (permutation and
// per-stage twiddles), cached at package level and shared by every plan of
// that size. A mixedPlan adds the one piece of scratch the generic
// butterfly needs, so it is NOT safe for concurrent use; the transform
// allocates nothing.

type mixedStage struct {
	p, m int // combines p sub-transforms of length m
	// tw[k·(p−1)+q−1] = exp(−2πi·q·k/(p·m)) for k < m, 1 ≤ q < p: laid
	// out in the order the butterfly reads it.
	tw []complex128
	// root[j] = exp(−2πi·j/p); generic radix only.
	root []complex128
}

type mixedTables struct {
	n          int
	perm       []int32      // stage input i is x[perm[i]]
	stages     []mixedStage // execution order: innermost (m = 1) first
	maxGeneric int          // largest generic radix, 0 when there is none
}

var mixedCache sync.Map // int -> *mixedTables

func mixedTablesFor(n int) *mixedTables {
	if t, ok := mixedCache.Load(n); ok {
		return t.(*mixedTables)
	}
	t, _ := mixedCache.LoadOrStore(n, newMixedTables(n))
	return t.(*mixedTables)
}

func newMixedTables(n int) *mixedTables {
	if n < 1 {
		panic("dsp: mixed-radix FFT requires n ≥ 1")
	}
	t := &mixedTables{n: n, perm: make([]int32, n)}
	// Outermost factor first: 4s, then 2, 3, 5, 7, … A composite trial
	// divisor never divides (its prime factors are already gone), and once
	// p² exceeds what is left, what is left is prime.
	var radices []int
	for rem, p := n, 4; rem > 1; {
		for rem%p != 0 {
			switch {
			case p == 4:
				p = 2
			case p == 2:
				p = 3
			default:
				p += 2
			}
			if p*p > rem {
				p = rem
			}
		}
		radices = append(radices, p)
		rem /= p
	}
	// Digit reversal: sub-transform q of a length-p·m block reads every
	// p-th input of that block's input comb.
	var fill func(depth, m, in, stride, out int)
	fill = func(depth, m, in, stride, out int) {
		if depth == len(radices) {
			t.perm[out] = int32(in)
			return
		}
		p := radices[depth]
		m /= p
		for q := 0; q < p; q++ {
			fill(depth+1, m, in+q*stride, stride*p, out+q*m)
		}
	}
	fill(0, n, 0, 1, 0)

	m := 1
	for i := len(radices) - 1; i >= 0; i-- {
		p := radices[i]
		size := p * m
		s := mixedStage{p: p, m: m, tw: make([]complex128, m*(p-1))}
		for k := 0; k < m; k++ {
			for q := 1; q < p; q++ {
				s.tw[k*(p-1)+q-1] = unitRoot(q*k%size, size)
			}
		}
		if p > 5 {
			s.root = make([]complex128, p)
			for j := range s.root {
				s.root[j] = unitRoot(j, p)
			}
			t.maxGeneric = max(t.maxGeneric, p)
		}
		t.stages = append(t.stages, s)
		m = size
	}
	return t
}

// unitRoot returns exp(−2πi·k/n) for 0 ≤ k < n.
func unitRoot(k, n int) complex128 {
	s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	return complex(c, s)
}

// mixedPlan is one caller's handle on a mixed-radix transform of any
// length n ≥ 1.
type mixedPlan struct {
	t   *mixedTables
	col []complex128 // generic-radix butterfly column
}

func newMixedPlan(n int) *mixedPlan {
	t := mixedTablesFor(n)
	return &mixedPlan{t: t, col: make([]complex128, t.maxGeneric)}
}

// forward computes the unscaled DFT of src into dst. Both must have the
// plan's length and must not overlap.
func (p *mixedPlan) forward(dst, src []complex128) {
	CheckLen("mixed plan input", len(src), p.t.n)
	CheckLen("mixed plan output", len(dst), p.t.n)
	for i, j := range p.t.perm {
		dst[i] = src[j]
	}
	p.t.butterflies(dst, p.col)
}

// inverse computes the unscaled conjugate (inverse) DFT of src into dst —
// divide by the length for the true inverse — as conj(DFT(conj(src))).
func (p *mixedPlan) inverse(dst, src []complex128) {
	CheckLen("mixed plan input", len(src), p.t.n)
	CheckLen("mixed plan output", len(dst), p.t.n)
	for i, j := range p.t.perm {
		dst[i] = complex(real(src[j]), -imag(src[j]))
	}
	p.t.butterflies(dst, p.col)
	for i, v := range dst {
		dst[i] = complex(real(v), -imag(v))
	}
}

// butterflies runs every stage in place over x, which must already be in
// the permuted order (x[i] = input[perm[i]]). Callers that build their
// input element by element gather through perm themselves and skip a
// pass. col is the generic-radix column scratch, maxGeneric long (nil
// when there is no generic stage).
func (t *mixedTables) butterflies(x, col []complex128) {
	for i := range t.stages {
		s := &t.stages[i]
		switch s.p {
		case 2:
			bfly2(x, s.m, s.tw)
		case 3:
			bfly3(x, s.m, s.tw)
		case 4:
			bfly4(x, s.m, s.tw)
		case 5:
			bfly5(x, s.m, s.tw)
		default:
			bflyGeneric(x, s, col)
		}
	}
}

// Each butterfly walks x in blocks of p·m. Within a block, leg q holds
// sub-transform q; output r of column k is Σ_q leg_q[k]·w^{qk}·W_p^{qr},
// written back to leg r.

func bfly2(x []complex128, m int, tw []complex128) {
	tw = tw[:m]
	for ; len(x) >= 2*m; x = x[2*m:] {
		x0, x1 := x[:m], x[m:2*m]
		for k, w := range tw {
			a, b := x0[k], x1[k]*w
			x0[k], x1[k] = a+b, a-b
		}
	}
}

func bfly3(x []complex128, m int, tw []complex128) {
	const h = 0.86602540378443864676 // sin(2π/3)
	for ; len(x) >= 3*m; x = x[3*m:] {
		x0, x1, x2 := x[:m], x[m:2*m], x[2*m:3*m]
		for k := range x0 {
			w := tw[2*k : 2*k+2]
			a, b, c := x0[k], x1[k]*w[0], x2[k]*w[1]
			s, d := b+c, b-c
			mid := complex(real(a)-0.5*real(s), imag(a)-0.5*imag(s))
			dr, di := h*real(d), h*imag(d)
			x0[k] = a + s
			x1[k] = complex(real(mid)+di, imag(mid)-dr)
			x2[k] = complex(real(mid)-di, imag(mid)+dr)
		}
	}
}

func bfly4(x []complex128, m int, tw []complex128) {
	for ; len(x) >= 4*m; x = x[4*m:] {
		x0, x1, x2, x3 := x[:m], x[m:2*m], x[2*m:3*m], x[3*m:4*m]
		for k := range x0 {
			w := tw[3*k : 3*k+3]
			a, b, c, d := x0[k], x1[k]*w[0], x2[k]*w[1], x3[k]*w[2]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			jt3 := complex(-imag(t3), real(t3))
			x0[k], x1[k], x2[k], x3[k] = t0+t2, t1-jt3, t0-t2, t1+jt3
		}
	}
}

func bfly5(x []complex128, m int, tw []complex128) {
	const (
		c1 = 0.30901699437494742410  // cos(2π/5)
		s1 = 0.95105651629515357212  // sin(2π/5)
		c2 = -0.80901699437494742410 // cos(4π/5)
		s2 = 0.58778525229247312917  // sin(4π/5)
	)
	for ; len(x) >= 5*m; x = x[5*m:] {
		x0, x1, x2, x3, x4 := x[:m], x[m:2*m], x[2*m:3*m], x[3*m:4*m], x[4*m:5*m]
		for k := range x0 {
			w := tw[4*k : 4*k+4]
			a := x0[k]
			b1, b2, b3, b4 := x1[k]*w[0], x2[k]*w[1], x3[k]*w[2], x4[k]*w[3]
			p1, d1 := b1+b4, b1-b4
			p2, d2 := b2+b3, b2-b3
			x0[k] = a + p1 + p2
			ur := real(a) + c1*real(p1) + c2*real(p2)
			ui := imag(a) + c1*imag(p1) + c2*imag(p2)
			vr := s1*real(d1) + s2*real(d2)
			vi := s1*imag(d1) + s2*imag(d2)
			x1[k] = complex(ur+vi, ui-vr)
			x4[k] = complex(ur-vi, ui+vr)
			ur = real(a) + c2*real(p1) + c1*real(p2)
			ui = imag(a) + c2*imag(p1) + c1*imag(p2)
			vr = s2*real(d1) - s1*real(d2)
			vi = s2*imag(d1) - s1*imag(d2)
			x2[k] = complex(ur+vi, ui-vr)
			x3[k] = complex(ur-vi, ui+vr)
		}
	}
}

func bflyGeneric(x []complex128, s *mixedStage, col []complex128) {
	p, m := s.p, s.m
	col = col[:p]
	for ; len(x) >= p*m; x = x[p*m:] {
		for k := 0; k < m; k++ {
			col[0] = x[k]
			for q := 1; q < p; q++ {
				col[q] = x[k+q*m] * s.tw[k*(p-1)+q-1]
			}
			for r := 0; r < p; r++ {
				sum := col[0]
				for q, j := 1, r; q < p; q++ {
					sum += col[q] * s.root[j]
					if j += r; j >= p {
						j -= p
					}
				}
				x[k+r*m] = sum
			}
		}
	}
}
