package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// planNaiveDFT is the O(n²) reference the plan engine is checked against.
func planNaiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			phase := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, phase))
		}
		out[k] = sum
	}
	return out
}

func planRandComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestPlanMatchesNaiveDFT checks the power-of-two Plan4 transform against
// the direct DFT on randomized inputs across every size the system uses.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := planRandComplex(n, int64(n))
		want := planNaiveDFT(x, false)
		got := append([]complex128(nil), x...)
		Plan4For(n).Forward(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
		// Inverse (unscaled conjugate transform).
		wantInv := planNaiveDFT(x, true)
		gotInv := append([]complex128(nil), x...)
		Plan4For(n).Inverse(gotInv)
		for k := range wantInv {
			if cmplx.Abs(gotInv[k]-wantInv[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d inverse bin %d: got %v want %v", n, k, gotInv[k], wantInv[k])
			}
		}
	}
}

// TestRealPlanMatchesComplexFFT checks the packed real transform against a
// full complex FFT of the same signal.
func TestRealPlanMatchesComplexFFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32, 128, 2048} {
		x := benchSignal(n, int64(n))
		full := make([]complex128, n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		full = FFT(full)

		rp := RealPlanFor(n)
		spec := make([]complex128, rp.HalfLen())
		rp.Forward(spec, x)
		for k := 0; k <= n/2; k++ {
			if cmplx.Abs(spec[k]-full[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, spec[k], full[k])
			}
		}
	}
}

// TestRealPlanRoundTrip checks Inverse∘Forward ≈ identity.
func TestRealPlanRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 16, 512, 4096} {
		x := benchSignal(n, int64(n)+77)
		rp := RealPlanFor(n)
		spec := make([]complex128, rp.HalfLen())
		rp.Forward(spec, x)
		back := make([]float64, n)
		rp.Inverse(back, spec)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: got %g want %g", n, i, back[i], x[i])
			}
		}
	}
}

// TestPlanCacheConcurrency hammers the package-level caches from many
// goroutines (run with -race): plan lookup, real transforms, pooled helpers,
// correlators, MDCT plans (scratch borrowed per call) and mixed-radix tables
// all shared.
func TestPlanCacheConcurrency(t *testing.T) {
	template := planRandComplex(512, 9)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			x := benchSignal(1024, seed)
			c := NewComplexCorrelator(template, 2048)
			seg := planRandComplex(c.SegmentLen(), seed+1)
			dst := make([]complex128, 0)
			for i := 0; i < 20; i++ {
				_ = FFTReal(x)
				_ = BandPower(x, 48000, 6000, 12000)
				dst = c.CorrelateInto(dst, seg)
				// 420 bins run a 210 = 2·3·5·7-point FFT, a size no
				// other test warms: the first lookups race here, and its
				// generic radix-7 stage borrows column scratch.
				mp := MDCTPlanFor(420)
				_ = mp.Inverse(nil, mp.Forward(nil, benchSignal(840, seed+int64(i))))
				p := Plan4For(256)
				buf := planRandComplex(256, seed)
				p.Forward(buf)
				p.Inverse(buf)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestBandPowerZeroAlloc asserts the per-frame marker-band probe stays off
// the heap in steady state.
func TestBandPowerZeroAlloc(t *testing.T) {
	x := benchSignal(960, 6)
	_ = BandPower(x, 48000, 6000, 12000) // warm the free list and plan cache
	allocs := testing.AllocsPerRun(50, func() {
		_ = BandPower(x, 48000, 6000, 12000)
	})
	if allocs != 0 {
		t.Fatalf("BandPower allocates %v per op, want 0", allocs)
	}
}

// TestApplyInPlaceMatchesApply checks the allocation-free biquad cascade
// against the allocating one.
func TestApplyInPlaceMatchesApply(t *testing.T) {
	x := benchSignal(480, 7)
	c1 := Chain{NewHighPassBiquad(200, 48000, 0.707), NewPeakingBiquad(3000, 48000, 1.2, 4)}
	c2 := Chain{NewHighPassBiquad(200, 48000, 0.707), NewPeakingBiquad(3000, 48000, 1.2, 4)}
	want := c1.Apply(x)
	got := append([]float64(nil), x...)
	c2.ApplyInPlace(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain sample %d: got %g want %g", i, got[i], want[i])
		}
	}
}

// TestMDCTPlanZeroAlloc: with reused buffers the plan's steady state stays
// off the heap, at both codec block sizes and a power-of-two one.
func TestMDCTPlanZeroAlloc(t *testing.T) {
	for _, nBins := range []int{64, 480, 960} {
		x := benchSignal(2*nBins, int64(nBins))
		p := MDCTPlanFor(nBins)
		spec := make([]float64, nBins)
		td := make([]float64, 2*nBins)
		allocs := testing.AllocsPerRun(20, func() {
			spec = p.Forward(spec, x)
			td = p.Inverse(td, spec)
		})
		if allocs != 0 {
			t.Fatalf("nBins=%d: MDCTPlan allocates %v per op, want 0", nBins, allocs)
		}
	}
}
