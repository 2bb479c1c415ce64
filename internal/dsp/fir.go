package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite impulse response filter described by its tap coefficients.
// The zero value is an identity-less (empty) filter; construct one with the
// design helpers (LowPass, BandPass) or directly from taps.
type FIR struct {
	Taps []float64
}

// NewFIR wraps a coefficient slice as a FIR filter.
func NewFIR(taps []float64) *FIR { return &FIR{Taps: taps} }

// LowPass designs a windowed-sinc low-pass FIR with the given cutoff (Hz),
// sample rate (Hz), and number of taps (forced odd for symmetric delay).
// A Hamming window bounds the side lobes at roughly -53 dB, plenty for
// the marker band-limiting in Ekho.
func LowPass(cutoff, sampleRate float64, taps int) *FIR {
	taps = oddify(taps)
	h := make([]float64, taps)
	fc := cutoff / sampleRate // normalized (cycles/sample)
	mid := taps / 2
	w := hammingWindow(taps)
	var sum float64
	for i := 0; i < taps; i++ {
		n := float64(i - mid)
		var v float64
		if n == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*n) / (math.Pi * n)
		}
		v *= w[i]
		h[i] = v
		sum += v
	}
	// Normalize DC gain to exactly 1.
	for i := range h {
		h[i] /= sum
	}
	return &FIR{Taps: h}
}

// BandPass designs a linear-phase band-pass FIR passing [lo, hi] Hz. This is
// the filter Ekho applies to Gaussian noise to produce the 6-12 kHz
// pseudo-noise marker (Section 4.2 of the paper).
func BandPass(lo, hi, sampleRate float64, taps int) *FIR {
	if lo >= hi {
		panic(fmt.Sprintf("dsp: BandPass lo %v >= hi %v", lo, hi))
	}
	taps = oddify(taps)
	lpHi := LowPass(hi, sampleRate, taps)
	lpLo := LowPass(lo, sampleRate, taps)
	h := make([]float64, taps)
	for i := range h {
		h[i] = lpHi.Taps[i] - lpLo.Taps[i]
	}
	return &FIR{Taps: h}
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.Taps) }

// GroupDelay returns the filter's constant group delay in samples
// (linear-phase symmetric designs only).
func (f *FIR) GroupDelay() int { return len(f.Taps) / 2 }

// Apply convolves x with the filter and returns a signal of the same length
// as x, compensating the linear-phase group delay so features stay aligned
// with the input. Short inputs are handled by zero-padding at the edges.
func (f *FIR) Apply(x []float64) []float64 { return f.apply(x, RealPlanFor) }

// ApplyOnce is Apply, bit for bit, with a long input's transform plan
// built for this call alone instead of kept in the shared cache.
func (f *FIR) ApplyOnce(x []float64) []float64 {
	return f.apply(x, func(n int) *RealPlan { return newRealPlan(n, newPlan4) })
}

func (f *FIR) apply(x []float64, plan func(int) *RealPlan) []float64 {
	if len(x) == 0 {
		return make([]float64, 0)
	}
	full := f.applyFull(x, plan)
	d := f.GroupDelay()
	out := make([]float64, len(x))
	copy(out, full[d:])
	return out
}

// ApplyFull returns the full convolution of length len(x)+len(taps)-1.
// For long inputs it switches to FFT overlap-free block convolution.
func (f *FIR) ApplyFull(x []float64) []float64 { return f.applyFull(x, RealPlanFor) }

func (f *FIR) applyFull(x []float64, plan func(int) *RealPlan) []float64 {
	n, m := len(x), len(f.Taps)
	if n == 0 || m == 0 {
		return make([]float64, 0)
	}
	outLen := n + m - 1
	// Direct convolution below a size threshold; FFT beyond it.
	if n*m <= 1<<16 {
		out := make([]float64, outLen)
		for i := 0; i < n; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				out[i+j] += xi * f.Taps[j]
			}
		}
		return out
	}
	return fftConvolve(plan, x, f.Taps, outLen)
}

// fftConvolve computes linear convolution via one real transform from
// plan: two packed forwards, a half-spectrum product and an inverse.
func fftConvolve(plan func(int) *RealPlan, a, b []float64, outLen int) []float64 {
	n := max(NextPow2(outLen), 2)
	rp := plan(n)
	buf := make([]float64, n)
	fa := make([]complex128, rp.HalfLen())
	fb := make([]complex128, rp.HalfLen())
	copy(buf, a)
	rp.Forward(fa, buf)
	clear(buf)
	copy(buf, b)
	rp.Forward(fb, buf)
	for i := range fa {
		fa[i] *= fb[i]
	}
	rp.Inverse(buf, fa)
	return buf[:outLen]
}

func oddify(n int) int {
	n = max(n, 3)
	if n%2 == 0 {
		n++
	}
	return n
}

func hammingWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := 0; i < n; i++ {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}
