package dsp

import (
	"fmt"
	"math"
	"sync"
)

// Modified Discrete Cosine Transform with time-domain alias cancellation
// (TDAC) — the transform real audio codecs (CELT inside OPUS, AAC) build
// on. The codec package uses it with the Princen-Bradley sine window:
// windowed MDCT → quantize → windowed IMDCT → 50% overlap-add reconstructs
// the signal exactly (up to quantization).
//
//	X[k] = Σ_{n=0}^{2N-1} x[n] · cos(π/N · (n + ½ + N/2) · (k + ½))
//
// The 2N-sample block folds onto an N-point DCT-IV, and the DCT-IV runs as
// one N/2-point complex FFT between two twiddle passes (the algorithm CELT
// uses). Pair the folded samples from both ends, rotate, transform, rotate:
//
//	t[n] = (u[2n] + i·u[N−1−2n]) · e^{−iπ(4n+1)/4N}        n < N/2
//	Y    = FFT_{N/2}(t) · e^{−iπk/N}
//	X[2k] = Re Y[k],   X[N−1−2k] = −Im Y[k]
//
// because the three phases multiply out to e^{−iπ(2n+½)(2k+½)/N}, whose
// real and imaginary parts are the DCT-IV kernel at the even input 2n and
// (by cos(π/2 − θ) = sin θ) the odd input N−1−2n. The twiddles are cached
// per size at package level; an MDCTPlan adds per-instance scratch, so the
// steady-state transform allocates nothing.

// mdctTwiddles is the immutable size-dependent setup of the N-point
// DCT-IV. Shared across all plans of one size.
type mdctTwiddles struct {
	// pre[i] = e^{−iπ(4n+1)/4N} at n = perm[i]: stored in the FFT's
	// gather order so the pre-rotation writes its input directly in place.
	pre  []complex128
	post []complex128 // post[k] = e^{−iπk/N}
}

var mdctCache sync.Map // int -> *mdctTwiddles

func mdctTwiddlesFor(n int, perm []int32) *mdctTwiddles {
	if t, ok := mdctCache.Load(n); ok {
		return t.(*mdctTwiddles)
	}
	t := &mdctTwiddles{
		pre:  make([]complex128, n/2),
		post: make([]complex128, n/2),
	}
	a := -math.Pi / float64(n)
	for i, j := range perm {
		s, c := math.Sincos(a * (float64(j) + 0.25))
		t.pre[i] = complex(c, s)
		s, c = math.Sincos(a * float64(i))
		t.post[i] = complex(c, s)
	}
	actual, _ := mdctCache.LoadOrStore(n, t)
	return actual.(*mdctTwiddles)
}

// MDCTPlan computes N-bin forward and inverse MDCTs over shared cached
// tables with private scratch, so repeated transforms allocate nothing.
// A plan is NOT safe for concurrent use (the scratch is shared between
// calls); give each goroutine its own — the expensive tables are shared
// underneath.
type MDCTPlan struct {
	n    int // spectral bins per block (block length 2n)
	tw   *mdctTwiddles
	fft  *mixedPlan   // n/2 points
	buf  []complex128 // n/2
	fold []float64    // n
}

// NewMDCTPlan returns a plan for nBins-bin MDCT blocks (2·nBins samples).
// nBins must be even: the transform pairs the folded samples.
func NewMDCTPlan(nBins int) *MDCTPlan {
	if nBins <= 0 || nBins%2 != 0 {
		panic(fmt.Sprintf("dsp: NewMDCTPlan requires a positive even nBins, got %d", nBins))
	}
	fft := newMixedPlan(nBins / 2)
	return &MDCTPlan{
		n:    nBins,
		tw:   mdctTwiddlesFor(nBins, fft.t.perm),
		fft:  fft,
		buf:  make([]complex128, nBins/2),
		fold: make([]float64, nBins),
	}
}

// Bins returns the spectral bin count N (block length is 2N).
func (p *MDCTPlan) Bins() int { return p.n }

// Forward computes the N-point MDCT of the 2N-sample block x into dst,
// which is grown (reusing capacity) to N and returned.
func (p *MDCTPlan) Forward(dst, x []float64) []float64 {
	CheckLen("MDCT block", len(x), 2*p.n)
	// Fold the block onto the DCT-IV domain by the TDAC boundary
	// symmetries.
	u, half := p.fold, p.n/2
	for i := 0; i < half; i++ {
		u[i] = -x[3*half-1-i] - x[3*half+i]
		u[half+i] = x[i] - x[2*half-1-i]
	}
	dst = growFloats(dst, p.n)
	p.dct4Into(dst, u)
	return dst
}

// Inverse computes the 2N-sample IMDCT (with time-domain aliasing) of the
// N-bin spectrum into dst, which is grown (reusing capacity) to 2N and
// returned. Overlap-adding two consecutive windowed outputs cancels the
// aliasing exactly when the window satisfies Princen-Bradley.
func (p *MDCTPlan) Inverse(dst, spec []float64) []float64 {
	CheckLen("IMDCT spectrum", len(spec), p.n)
	d, half := p.fold, p.n/2
	p.dct4Into(d, spec)
	dst = growFloats(dst, 2*p.n)
	scale := 2.0 / float64(p.n)
	// Unfold: the DCT-IV output, odd-extended about N and even about 2N,
	// read from N/2 on.
	for i := 0; i < half; i++ {
		dst[i] = d[half+i] * scale
		dst[3*half+i] = -d[i] * scale
	}
	for i := 0; i < p.n; i++ {
		dst[half+i] = -d[p.n-1-i] * scale
	}
	return dst
}

// dct4Into evaluates the DCT-IV
//
//	X[k] = Σ_{n=0}^{N-1} u[n] · cos(π/N · (n+½)(k+½))
//
// by the N/2-point algorithm above. dst and u may alias.
func (p *MDCTPlan) dct4Into(dst, u []float64) {
	n, buf := p.n, p.buf
	pre := p.tw.pre[:len(buf)]
	for i, j := range p.fft.t.perm {
		a, b, w := u[2*j], u[n-1-2*int(j)], pre[i]
		buf[i] = complex(a*real(w)-b*imag(w), a*imag(w)+b*real(w))
	}
	p.fft.butterflies(buf)
	for k, w := range p.tw.post {
		y := buf[k] * w
		dst[2*k] = real(y)
		dst[n-1-2*k] = -imag(y)
	}
}
