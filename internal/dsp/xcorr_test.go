package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCrossCorrelateDirectSmall(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	w := []float64{1, 1}
	got := CrossCorrelate(x, w)
	want := []float64{3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("len=%d want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("idx %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestCrossCorrelateFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Force the FFT path: n*m > 1<<16.
	x := make([]float64, 3000)
	w := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	fftOut := CrossCorrelate(x, w)
	// direct reference
	direct := make([]float64, len(x)-len(w)+1)
	for t0 := range direct {
		var s float64
		for i := range w {
			s += x[t0+i] * w[i]
		}
		direct[t0] = s
	}
	for i := range direct {
		if math.Abs(fftOut[i]-direct[i]) > 1e-7 {
			t.Fatalf("idx %d: fft %g direct %g", i, fftOut[i], direct[i])
		}
	}
}

func TestCrossCorrelatePeakAtShiftProperty(t *testing.T) {
	// Property: embedding a noise template at a random offset inside a
	// quiet signal puts the correlation peak at that offset.
	f := func(seed int64, offSel uint16) bool {
		r := rand.New(rand.NewSource(seed))
		tmpl := make([]float64, 256)
		for i := range tmpl {
			tmpl[i] = r.NormFloat64()
		}
		sig := make([]float64, 4096)
		for i := range sig {
			sig[i] = 0.01 * r.NormFloat64()
		}
		off := int(offSel) % (len(sig) - len(tmpl))
		for i, v := range tmpl {
			sig[off+i] += v
		}
		z := CrossCorrelate(sig, tmpl)
		return argMaxAbs(z) == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if CrossCorrelate(nil, []float64{1}) != nil {
		t.Error("nil x should give nil")
	}
	if CrossCorrelate([]float64{1}, nil) != nil {
		t.Error("nil w should give nil")
	}
	if CrossCorrelate([]float64{1}, []float64{1, 2}) != nil {
		t.Error("template longer than signal should give nil")
	}
	out := CrossCorrelate([]float64{2}, []float64{3})
	if len(out) != 1 || out[0] != 6 {
		t.Errorf("single-sample correlation: %v", out)
	}
}

// argMaxAbs returns the index of the element with the largest absolute
// value, or -1 for an empty slice.
func argMaxAbs(x []float64) int {
	idx := -1
	for i, v := range x {
		if idx < 0 || math.Abs(v) > math.Abs(x[idx]) {
			idx = i
		}
	}
	return idx
}

func TestArgMaxAbs(t *testing.T) {
	if argMaxAbs(nil) != -1 {
		t.Error("empty should return -1")
	}
	if argMaxAbs([]float64{1, -5, 3}) != 1 {
		t.Error("should pick largest magnitude")
	}
}

func BenchmarkCrossCorrelate1sMarker(b *testing.B) {
	// The estimator's hot path: 5 s of recording against a 1 s marker.
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 5*48000)
	w := make([]float64, 48000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossCorrelate(x, w)
	}
}
