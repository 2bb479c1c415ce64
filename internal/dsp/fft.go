// Package dsp provides the digital signal processing primitives that Ekho
// is built on: fast Fourier transforms, FIR filter design and application,
// cross-correlation, window functions and resampling.
//
// The paper's reference implementation uses FFTW; this package is a
// self-contained, allocation-conscious replacement built only on the Go
// standard library. It has two complex FFT engines: sizes that are powers
// of two run the radix-4 Plan4 (fft4.go), driven by precomputed,
// package-cached tables, and all other sizes run the mixed-radix plan
// (fftmixed.go), so every length is supported. Real-valued signals of
// power-of-two length use RealPlan (plan.go), which packs them into a
// half-size Plan4 transform.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-place discrete Fourier transform of x when len(x) is a
// power of two, and an out-of-place mixed-radix transform otherwise. The
// returned slice aliases x in the power-of-two case.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	if isPow2(n) {
		fftPow2(x, false)
		return x
	}
	out := make([]complex128, n)
	newMixedPlan(n).forward(out, x)
	return out
}

// IFFT computes the inverse discrete Fourier transform with 1/N scaling.
// As with FFT, power-of-two inputs are transformed in place.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	out := x
	if isPow2(n) {
		fftPow2(x, true)
	} else {
		out = make([]complex128, n)
		newMixedPlan(n).inverse(out, x)
	}
	scale := 1 / float64(n)
	for i := range out {
		out[i] = complex(real(out[i])*scale, imag(out[i])*scale)
	}
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum of length NextPow2(len(x)) (zero padded). It is a convenience
// wrapper used by the spectral analysis paths; internally it runs the
// half-size packed real transform and mirrors the conjugate bins.
func FFTReal(x []float64) []complex128 {
	n := NextPow2(len(x))
	buf := make([]complex128, n)
	if n < 2 {
		for i, v := range x {
			buf[i] = complex(v, 0)
		}
		return buf
	}
	rp := RealPlanFor(n)
	sc := realScratchPool.Get().(*realScratch)
	f := growFloats(sc.f, n)
	copy(f, x)
	clear(f[len(x):])
	rp.Forward(buf[:rp.HalfLen()], f)
	for k := n/2 + 1; k < n; k++ {
		c := buf[n-k]
		buf[k] = complex(real(c), -imag(c))
	}
	sc.f = f
	realScratchPool.Put(sc)
	return buf
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// fftPow2 computes the in-place power-of-two FFT through the shared Plan4
// cache. inverse selects the conjugate transform (without scaling).
func fftPow2(x []complex128, inverse bool) {
	if len(x) <= 1 {
		return
	}
	p := Plan4For(len(x))
	if inverse {
		p.Inverse(x)
	} else {
		p.Forward(x)
	}
}

// BandPower returns the mean power of x within [lo, hi) Hz, computed in the
// frequency domain. It is used by the marker amplitude tracker (Eq. 2) to
// measure game-audio energy in the 6-12 kHz marker band — once per 20 ms
// frame per session, so it runs on the cached real-input plan with scratch
// from the package free list (scratch.go) and allocates nothing in steady
// state. The input is zero-padded to NextPow2(len(x)) like FFTReal.
func BandPower(x []float64, sampleRate, lo, hi float64) float64 {
	if len(x) == 0 {
		return 0
	}
	n := max(NextPow2(len(x)), 2)
	binHz := sampleRate / float64(n)
	loBin := max(int(math.Ceil(lo/binHz)), 0)
	hiBin := min(int(math.Floor(hi/binHz)), n/2)
	if loBin >= hiBin {
		return 0
	}
	rp := RealPlanFor(n)
	f, spec := BorrowFloats(n), BorrowComplex(rp.HalfLen())
	copy(f, x)
	clear(f[len(x):])
	rp.Forward(spec, f)
	var sum float64
	for i := loBin; i < hiBin; i++ {
		re, im := real(spec[i]), imag(spec[i])
		sum += re*re + im*im
	}
	ReturnFloats(f)
	ReturnComplex(spec)
	// Parseval with one-sided doubling, normalized per input sample.
	return 2 * sum / (float64(n) * float64(len(x)))
}

// CheckLen panics with a descriptive message if got != want; used by
// internal kernels whose contracts require equal-length slices.
func CheckLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("dsp: %s length %d, want %d", name, got, want))
	}
}
