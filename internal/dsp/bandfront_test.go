package dsp

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// The fused front-end must be numerically interchangeable with the
// textbook chain it replaces (reference_test.go): refMixer into a Decimator for
// BandDecimator, a plain ÷2 Decimator for HalfBandDecimator.

func TestBandDecimatorMatchesMixedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	taps := LowPass(6000, 48000, 29).Taps
	for _, m := range []int{1, 2, 3, 4, 8} {
		mixed := newRefMixer(9000, 48000).MixDown(nil, x)
		want := NewDecimator(m, taps).Process(nil, mixed)
		got := NewBandDecimator(9000, 48000, m, taps).Process(nil, x)
		if len(got) != len(want) {
			t.Fatalf("M=%d: %d outputs want %d", m, len(got), len(want))
		}
		for i := range want {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-12 {
				t.Fatalf("M=%d output %d: fused %v chain %v (off %g)", m, i, got[i], want[i], e)
			}
		}
	}
}

func TestBandDecimatorChunkInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := make([]float64, 8000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	taps := LowPass(6000, 48000, 29).Taps
	whole := NewBandDecimator(9000, 48000, 4, taps).Process(nil, x)
	st := NewBandDecimator(9000, 48000, 4, taps)
	var chunked []complex128
	for pos := 0; pos < len(x); {
		n := 1 + rng.Intn(700)
		if pos+n > len(x) {
			n = len(x) - pos
		}
		chunked = st.Process(chunked, x[pos:pos+n])
		pos += n
	}
	if len(whole) != len(chunked) {
		t.Fatalf("chunked run emitted %d outputs want %d", len(chunked), len(whole))
	}
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("output %d differs across chunkings", i)
		}
	}
}

// A 33-tap design spans two 16-sample carrier periods, so its modulated
// taps fold in conjugate pairs; a 21-tap one does not and keeps the plain
// dot. Both must match the direct modulated FIR
// y[m] = Σ_j h[j]·x[mM−j]·e^{-jω0(mM−j)} over random chunkings.
func TestBandDecimatorFoldMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	x := make([]float64, 6000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	osc := NewQuadOsc(9000, 48000)
	for _, tc := range []struct {
		taps   int
		folded bool
	}{{33, true}, {21, false}} {
		h := LowPass(6000, 48000, tc.taps).Taps
		st := NewBandDecimator(9000, 48000, 4, h)
		if st.folded != tc.folded {
			t.Fatalf("%d taps: folded %v, want %v", tc.taps, st.folded, tc.folded)
		}
		var got []complex128
		for pos := 0; pos < len(x); {
			n := min(1+rng.Intn(700), len(x)-pos)
			got = st.Process(got, x[pos:pos+n])
			pos += n
		}
		if want := (len(x) + 3) / 4; len(got) != want {
			t.Fatalf("%d taps: %d outputs, want %d", tc.taps, len(got), want)
		}
		for m, y := range got {
			var want complex128
			for j, hj := range h {
				if k := 4*m - j; k >= 0 {
					want += complex(hj*x[k], 0) * osc.Factor(k)
				}
			}
			if e := cmplx.Abs(y - want); e > 1e-12 {
				t.Fatalf("%d taps, output %d: %v, direct %v (off %g)", tc.taps, m, y, want, e)
			}
		}
	}
}

func TestBandDecimatorSteadyStateAllocs(t *testing.T) {
	taps := LowPass(6000, 48000, 29).Taps
	st := NewBandDecimator(9000, 48000, 4, taps)
	x := make([]float64, 960)
	dst := make([]complex128, 0, 1024)
	for i := 0; i < 4; i++ {
		dst = st.Process(dst[:0], x)
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = st.Process(dst[:0], x)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Process allocates %v times per frame", allocs)
	}
}

func TestHalfBandDecimatorMatchesDecimator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := make([]complex128, 6000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Cutoff at a quarter of the rate — the half-band condition.
	taps := LowPass(3000, 12000, 47).Taps
	want := NewDecimator(2, taps).Process(nil, x)
	got := NewHalfBandDecimator(taps).Process(nil, x)
	if len(got) != len(want) {
		t.Fatalf("%d outputs want %d", len(got), len(want))
	}
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > 1e-12 {
			t.Fatalf("output %d: half-band %v reference %v (off %g)", i, got[i], want[i], e)
		}
	}
}

func TestHalfBandDecimatorRejectsNonHalfBand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a full-band low-pass must be rejected")
		}
	}()
	NewHalfBandDecimator(LowPass(2000, 12000, 47).Taps)
}

func TestHalfBandDecimatorChunkInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	x := make([]complex128, 6000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	taps := LowPass(3000, 12000, 47).Taps
	whole := NewHalfBandDecimator(taps).Process(nil, x)
	st := NewHalfBandDecimator(taps)
	var chunked []complex128
	for pos := 0; pos < len(x); {
		n := 1 + rng.Intn(500)
		if pos+n > len(x) {
			n = len(x) - pos
		}
		chunked = st.Process(chunked, x[pos:pos+n])
		pos += n
	}
	if len(whole) != len(chunked) {
		t.Fatalf("chunked run emitted %d outputs want %d", len(chunked), len(whole))
	}
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("output %d differs across chunkings", i)
		}
	}
}

func TestHalfBandDecimatorSteadyStateAllocs(t *testing.T) {
	taps := LowPass(3000, 12000, 47).Taps
	st := NewHalfBandDecimator(taps)
	x := make([]complex128, 240)
	dst := make([]complex128, 0, 1024)
	for i := 0; i < 4; i++ {
		dst = st.Process(dst[:0], x)
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = st.Process(dst[:0], x)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Process allocates %v times per frame", allocs)
	}
}

// BenchmarkBandFront measures one second of the fused fac-8 front-end
// (÷4 modulated stage into the ÷2 half-band) against the chain it
// replaced (mix-down into three half-band Decimator stages).

func benchFrontInput() []float64 {
	rng := rand.New(rand.NewSource(41))
	x := make([]float64, 48000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// The marker detector's designs (estimator.fastFrontEnd): a 33-tap first
// link, whose modulated taps fold, into a 27-tap half-band, fed in 20 ms
// frames as the detector is.
func BenchmarkBandFrontFused(b *testing.B) {
	x := benchFrontInput()
	a := NewBandDecimator(9000, 48000, 4, LowPass(6000, 48000, 33).Taps)
	hb := NewHalfBandDecimator(LowPass(3000, 12000, 27).Taps)
	if !a.folded {
		b.Fatal("the detector's first link must fold")
	}
	mid := make([]complex128, 0, 960/4+8)
	out := make([]complex128, 0, 960/8+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < len(x); f += 960 {
			mid = a.Process(mid[:0], x[f:f+960])
			out = hb.Process(out[:0], mid)
		}
	}
}

func BenchmarkBandFrontChain(b *testing.B) {
	x := benchFrontInput()
	osc := newRefMixer(9000, 48000)
	st1 := NewDecimator(2, LowPass(12000, 48000, 11).Taps)
	st2 := NewDecimator(2, LowPass(6000, 24000, 17).Taps)
	st3 := NewDecimator(2, LowPass(3000, 12000, 47).Taps)
	mix := make([]complex128, 0, len(x))
	b1 := make([]complex128, 0, len(x)/2+8)
	b2 := make([]complex128, 0, len(x)/4+8)
	out := make([]complex128, 0, len(x)/8+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mix = osc.MixDown(mix[:0], x)
		b1 = st1.Process(b1[:0], mix)
		b2 = st2.Process(b2[:0], b1)
		out = st3.Process(out[:0], b2)
	}
}
