package dsp

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the real-input transform. RealPlan applies the standard
// N/2 complex-packing trick: the N-point real transform runs as one
// N/2-point complex transform (a cached Plan4, fft4.go) plus an O(N)
// unpacking pass, halving the butterfly work for the batch correlator,
// the spectral helpers and FIR convolution, whose signals are always real.
// Plans hold only size-dependent tables, are immutable after construction
// and are cached at package level (RealPlanFor), so every caller of the
// same size shares one set of tables instead of paying setup per call.

// RealPlan transforms real-valued signals of power-of-two length n (≥ 2)
// using one n/2-point complex transform plus O(n) packing, roughly halving
// the work of a full complex FFT. It is stateless, cached and safe for
// concurrent use.
type RealPlan struct {
	n    int
	half *Plan4       // complex plan of size n/2
	rt   []complex128 // rt[k] = exp(-2πik/n) for k ≤ n/4
}

var realPlanCache sync.Map // int -> *RealPlan

// RealPlanFor returns the shared real-input plan for a power-of-two size
// n ≥ 2.
func RealPlanFor(n int) *RealPlan {
	if p, ok := realPlanCache.Load(n); ok {
		return p.(*RealPlan)
	}
	actual, _ := realPlanCache.LoadOrStore(n, newRealPlan(n, Plan4For))
	return actual.(*RealPlan)
}

// newRealPlan builds a real plan of size n on the complex plan half(n/2).
func newRealPlan(n int, half func(int) *Plan4) *RealPlan {
	if !isPow2(n) || n < 2 {
		panic(fmt.Sprintf("dsp: RealPlanFor size %d is not a power of two ≥ 2", n))
	}
	m := n / 2
	p := &RealPlan{n: n, half: half(m)}
	p.rt = make([]complex128, m/2+1)
	for k := range p.rt {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.rt[k] = complex(c, s)
	}
	return p
}

// HalfLen returns the half-spectrum length n/2 + 1 (bins 0..n/2; the
// remaining bins of the full spectrum are the conjugate mirror).
func (p *RealPlan) HalfLen() int { return p.n/2 + 1 }

// Forward computes the half spectrum X[0..n/2] of the real signal src
// into dst. len(src) must be Size() and len(dst) HalfLen(). Bins 0 and
// n/2 are purely real.
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	CheckLen("real plan input", len(src), p.n)
	CheckLen("real plan spectrum", len(dst), p.HalfLen())
	m := p.n / 2
	z := dst[:m]
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.Forward(z)
	z0 := z[0]
	dst[m] = complex(real(z0)-imag(z0), 0)
	dst[0] = complex(real(z0)+imag(z0), 0)
	for k := 1; k <= m/2; k++ {
		zk, zmk := z[k], z[m-k]
		cz := complex(real(zmk), -imag(zmk))
		fe := (zk + cz) * 0.5
		fo := (zk - cz) * complex(0, -0.5) // (zk - conj(zmk)) / 2i
		v := p.rt[k] * fo
		u := fe + v
		d := fe - v
		dst[k] = u
		dst[m-k] = complex(real(d), -imag(d))
	}
}

// Inverse recovers the real signal from its half spectrum, applying the
// full 1/n scaling so Inverse∘Forward is the identity. len(dst) must be
// Size() and len(spec) HalfLen(). spec is used as scratch and destroyed.
func (p *RealPlan) Inverse(dst []float64, spec []complex128) {
	CheckLen("real plan output", len(dst), p.n)
	CheckLen("real plan spectrum", len(spec), p.HalfLen())
	m := p.n / 2
	x0, xm := real(spec[0]), real(spec[m])
	spec[0] = complex((x0+xm)/2, (x0-xm)/2)
	for k := 1; k <= m/2; k++ {
		xk, xmk := spec[k], spec[m-k]
		cx := complex(real(xmk), -imag(xmk))
		fe := (xk + cx) * 0.5
		v := (xk - cx) * 0.5 // = rt[k]·Fo[k]
		w := p.rt[k]
		fo := complex(real(w), -imag(w)) * v
		spec[k] = fe + complex(0, 1)*fo
		spec[m-k] = complex(real(fe), -imag(fe)) + complex(0, 1)*complex(real(fo), -imag(fo))
	}
	z := spec[:m]
	p.half.Inverse(z)
	scale := 1 / float64(m)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j]) * scale
		dst[2*j+1] = imag(z[j]) * scale
	}
}

// realScratch holds the padded input FFTReal reuses across calls. It stays
// on a sync.Pool, unlike the free list (scratch.go), because its sizes
// follow whole input buffers and the free list keeps every size it has
// seen.
type realScratch struct{ f []float64 }

var realScratchPool = sync.Pool{New: func() any { return new(realScratch) }}

// growFloats returns s resized to n, reusing capacity when possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
