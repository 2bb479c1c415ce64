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
// (by cos(π/2 − θ) = sin θ) the odd input N−1−2n. A plan holds only the
// size-dependent twiddles and FFT tables and is cached per size; the
// transform's scratch is borrowed from the free list per call, so plans
// are shared by every encoder and decoder and the steady-state transform
// allocates nothing.

// MDCTPlan computes N-bin forward and inverse MDCTs. It is immutable after
// construction, cached (MDCTPlanFor) and safe for concurrent use.
type MDCTPlan struct {
	n   int          // spectral bins per block (block length 2n)
	fft *mixedTables // n/2 points
	// pre[i] = e^{−iπ(4n+1)/4N} at n = perm[i]: stored in the FFT's
	// gather order so the pre-rotation writes its input directly in place.
	pre  []complex128
	post []complex128 // post[k] = e^{−iπk/N}
}

var mdctCache sync.Map // int -> *MDCTPlan

// MDCTPlanFor returns the shared plan for nBins-bin MDCT blocks (2·nBins
// samples). nBins must be even: the transform pairs the folded samples.
func MDCTPlanFor(nBins int) *MDCTPlan {
	if p, ok := mdctCache.Load(nBins); ok {
		return p.(*MDCTPlan)
	}
	if nBins <= 0 || nBins%2 != 0 {
		panic(fmt.Sprintf("dsp: MDCTPlanFor requires a positive even nBins, got %d", nBins))
	}
	p := &MDCTPlan{
		n:    nBins,
		fft:  mixedTablesFor(nBins / 2),
		pre:  make([]complex128, nBins/2),
		post: make([]complex128, nBins/2),
	}
	a := -math.Pi / float64(nBins)
	for i, j := range p.fft.perm {
		s, c := math.Sincos(a * (float64(j) + 0.25))
		p.pre[i] = complex(c, s)
		s, c = math.Sincos(a * float64(i))
		p.post[i] = complex(c, s)
	}
	actual, _ := mdctCache.LoadOrStore(nBins, p)
	return actual.(*MDCTPlan)
}

// Forward computes the N-point MDCT of the 2N-sample block x into dst,
// which is grown (reusing capacity) to N and returned. dst must not
// overlap x.
func (p *MDCTPlan) Forward(dst, x []float64) []float64 {
	CheckLen("MDCT block", len(x), 2*p.n)
	// Fold the block onto the DCT-IV domain by the TDAC boundary
	// symmetries, in place in dst.
	dst = growFloats(dst, p.n)
	half := p.n / 2
	for i := 0; i < half; i++ {
		dst[i] = -x[3*half-1-i] - x[3*half+i]
		dst[half+i] = x[i] - x[2*half-1-i]
	}
	p.dct4Into(dst, dst)
	return dst
}

// Inverse computes the 2N-sample IMDCT (with time-domain aliasing) of the
// N-bin spectrum into dst, which is grown (reusing capacity) to 2N and
// returned. Overlap-adding two consecutive windowed outputs cancels the
// aliasing exactly when the window satisfies Princen-Bradley.
func (p *MDCTPlan) Inverse(dst, spec []float64) []float64 {
	CheckLen("IMDCT spectrum", len(spec), p.n)
	d, half := BorrowFloats(p.n), p.n/2
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
	ReturnFloats(d)
	return dst
}

// dct4Into evaluates the DCT-IV
//
//	X[k] = Σ_{n=0}^{N-1} u[n] · cos(π/N · (n+½)(k+½))
//
// by the N/2-point algorithm above. dst and u may alias: u is read whole
// into the borrowed FFT buffer before dst is written.
func (p *MDCTPlan) dct4Into(dst, u []float64) {
	n, buf := p.n, BorrowComplex(p.n/2)
	pre := p.pre[:len(buf)]
	for i, j := range p.fft.perm {
		a, b, w := u[2*j], u[n-1-2*int(j)], pre[i]
		buf[i] = complex(a*real(w)-b*imag(w), a*imag(w)+b*real(w))
	}
	var col []complex128
	if p.fft.maxGeneric > 0 {
		col = BorrowComplex(p.fft.maxGeneric)
	}
	p.fft.butterflies(buf, col)
	for k, w := range p.post {
		y := buf[k] * w
		dst[2*k] = real(y)
		dst[n-1-2*k] = -imag(y)
	}
	if col != nil {
		ReturnComplex(col)
	}
	ReturnComplex(buf)
}
