package dsp

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// Plan4 must agree with the mixed-radix transform, which
// TestMixedPlanMatchesNaiveDFT holds to the direct DFT: same DFT, same
// unscaled inverse, across every power-of-two size the detector can ask
// for (both parities of log2 n exercise the trailing radix-2 stage).

func TestPlan4MatchesMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 1; n <= 1<<16; n <<= 1 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		mp := newMixedPlan(n)
		ref := make([]complex128, n)
		mp.forward(ref, x)
		got := append([]complex128(nil), x...)
		Plan4For(n).Forward(got)
		var maxAbs float64
		for _, v := range ref {
			if a := cmplx.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		tol := 1e-12 * (maxAbs + 1)
		for i := range ref {
			if e := cmplx.Abs(got[i] - ref[i]); e > tol {
				t.Fatalf("n=%d forward bin %d: plan4 %v mixed %v (off %g)", n, i, got[i], ref[i], e)
			}
		}
		refInv := make([]complex128, n)
		mp.inverse(refInv, ref)
		Plan4For(n).Inverse(got)
		for i := range refInv {
			if e := cmplx.Abs(got[i] - refInv[i]); e > tol*float64(n) {
				t.Fatalf("n=%d inverse bin %d: plan4 %v mixed %v (off %g)", n, i, got[i], refInv[i], e)
			}
		}
	}
}

func TestPlan4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{8, 16384, 32768} {
		p := Plan4For(n)
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		p.Forward(x)
		p.Inverse(x)
		scale := complex(1/float64(n), 0)
		for i := range x {
			if e := cmplx.Abs(x[i]*scale - orig[i]); e > 1e-10 {
				t.Fatalf("n=%d sample %d: round trip %v want %v (off %g)", n, i, x[i]*scale, orig[i], e)
			}
		}
	}
}

func TestPlan4FusedEntryPointsMatchInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for n := 1; n <= 1<<14; n <<= 1 {
		p := Plan4For(n)
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		srcCopy := append([]complex128(nil), src...)

		want := append([]complex128(nil), src...)
		p.Forward(want)
		got := make([]complex128, n)
		p.ForwardFrom(got, src)
		for i := range want {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-9 {
				t.Fatalf("n=%d ForwardFrom bin %d: %v want %v (off %g)", n, i, got[i], want[i], e)
			}
		}
		for i := range src {
			if src[i] != srcCopy[i] {
				t.Fatalf("n=%d ForwardFrom mutated src[%d]", n, i)
			}
		}
	}
}

func TestPlan4TransformAllocs(t *testing.T) {
	p := Plan4For(16384)
	x := make([]complex128, 16384)
	allocs := testing.AllocsPerRun(20, func() {
		p.Forward(x)
		p.Inverse(x)
	})
	if allocs > 0 {
		t.Fatalf("transform allocates %v times per call pair", allocs)
	}
}

func benchTransformInput(n int) []complex128 {
	rng := rand.New(rand.NewSource(53))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func BenchmarkPlan4Forward16384(b *testing.B) {
	p := Plan4For(16384)
	x := benchTransformInput(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

// The inverse conjugates each forward twiddle as it loads it rather than
// reading a second table. Conjugation commutes exactly with IEEE complex
// adds and products, so the inverse is bit for bit the conjugate of the
// forward transform of the conjugated input — the identity the dropped
// conj(w) table also satisfied. The kept table stops at 3n/4, the highest
// index a butterfly reads.
func TestPlan4InverseIsConjugateForwardBitwise(t *testing.T) {
	for n := 2; n <= 1<<13; n <<= 1 {
		p := Plan4For(n)
		if len(p.w) != 3*n/4 {
			t.Fatalf("n=%d: twiddle table %d entries, want %d", n, len(p.w), 3*n/4)
		}
		x := planRandComplex(n, int64(n))
		inv := append([]complex128(nil), x...)
		p.Inverse(inv)
		fwd := make([]complex128, n)
		for i, v := range x {
			fwd[i] = cmplx.Conj(v)
		}
		p.Forward(fwd)
		for i := range inv {
			if inv[i] != cmplx.Conj(fwd[i]) {
				t.Fatalf("n=%d bin %d: inverse %v, conj(forward(conj)) %v", n, i, inv[i], cmplx.Conj(fwd[i]))
			}
		}
	}
}
