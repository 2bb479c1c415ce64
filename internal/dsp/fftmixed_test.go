package dsp

import (
	"math/cmplx"
	"testing"
)

// TestMixedPlanMatchesNaiveDFT checks the mixed-radix transform, both
// directions and the round trip, against the direct DFT. The sizes cover
// n = 1, each unrolled butterfly alone (2, 3, 4, 5), the generic prime
// butterfly alone (7, 97) and mixed with the others (1001 = 7·11·13), and
// the composite sizes the codec and the FFT/IFFT tests use.
func TestMixedPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 12, 15, 30, 60, 97, 240, 480, 960, 1001, 1920} {
		x := planRandComplex(n, int64(n))
		p := newMixedPlan(n)
		tol := 1e-9 * float64(n)

		got := make([]complex128, n)
		p.forward(got, x)
		for k, want := range planNaiveDFT(x, false) {
			if cmplx.Abs(got[k]-want) > tol {
				t.Fatalf("n=%d forward bin %d: got %v want %v", n, k, got[k], want)
			}
		}

		inv := make([]complex128, n)
		p.inverse(inv, x)
		for k, want := range planNaiveDFT(x, true) {
			if cmplx.Abs(inv[k]-want) > tol {
				t.Fatalf("n=%d inverse bin %d: got %v want %v", n, k, inv[k], want)
			}
		}

		p.inverse(inv, got)
		for i := range x {
			if cmplx.Abs(inv[i]/complex(float64(n), 0)-x[i]) > 1e-12*float64(n) {
				t.Fatalf("n=%d round trip sample %d: got %v want %v", n, i, inv[i]/complex(float64(n), 0), x[i])
			}
		}
	}
}

// TestMixedPlanZeroAlloc: the generic butterfly's column scratch lives in
// the plan, so a transform with prime factors above 5 stays off the heap
// too (TestMDCTPlanZeroAlloc covers the unrolled radices).
func TestMixedPlanZeroAlloc(t *testing.T) {
	const n = 77
	x := planRandComplex(n, 1)
	dst := make([]complex128, n)
	p := newMixedPlan(n)
	if allocs := testing.AllocsPerRun(20, func() { p.forward(dst, x) }); allocs != 0 {
		t.Fatalf("n=%d: forward allocates %v per op, want 0", n, allocs)
	}
}

func BenchmarkMixedPlan480(b *testing.B) {
	x := planRandComplex(480, 1)
	dst := make([]complex128, 480)
	p := newMixedPlan(480)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.forward(dst, x)
	}
}
