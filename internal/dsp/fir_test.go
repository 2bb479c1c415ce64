package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sine(freq, sr float64, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / sr)
	}
	return x
}

func TestLowPassAttenuatesStopBand(t *testing.T) {
	const sr = 48000.0
	f := LowPass(6000, sr, 255)
	pass := f.Apply(sine(1000, sr, 9600))
	stop := f.Apply(sine(15000, sr, 9600))
	pp := meanPower(pass[1000 : len(pass)-1000])
	sp := meanPower(stop[1000 : len(stop)-1000])
	if pp < 0.3 {
		t.Fatalf("passband power %g too low", pp)
	}
	if sp > pp/1000 {
		t.Fatalf("stopband power %g not attenuated (pass %g)", sp, pp)
	}
}

func TestHighPassAttenuatesLowBand(t *testing.T) {
	const sr = 48000.0
	low := Chain{NewHighPassBiquad(2000, sr, 0.707)}.Apply(sine(100, sr, 9600))
	high := Chain{NewHighPassBiquad(2000, sr, 0.707)}.Apply(sine(10000, sr, 9600))
	lp := meanPower(low[1000 : len(low)-1000])
	hp := meanPower(high[1000 : len(high)-1000])
	if hp < 0.3 {
		t.Fatalf("passband power %g too low", hp)
	}
	if lp > hp/1000 {
		t.Fatalf("low band power %g not attenuated", lp)
	}
}

func TestBandPassSelectsMarkerBand(t *testing.T) {
	const sr = 48000.0
	f := BandPass(6000, 12000, sr, 511)
	in := f.Apply(sine(9000, sr, 9600))
	below := f.Apply(sine(3000, sr, 9600))
	above := f.Apply(sine(18000, sr, 9600))
	ip := meanPower(in[1000 : len(in)-1000])
	bp := meanPower(below[1000 : len(below)-1000])
	ap := meanPower(above[1000 : len(above)-1000])
	if ip < 0.3 {
		t.Fatalf("in-band power %g too low", ip)
	}
	if bp > ip/500 || ap > ip/500 {
		t.Fatalf("out-of-band power not attenuated: below=%g above=%g in=%g", bp, ap, ip)
	}
}

func TestBandPassPanicsOnInvertedBand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo >= hi")
		}
	}()
	BandPass(12000, 6000, 48000, 101)
}

func TestFIRLinearityProperty(t *testing.T) {
	fir := BandPass(6000, 12000, 48000, 101)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 512
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		alpha := r.NormFloat64()
		mix := make([]float64, n)
		for i := range mix {
			mix[i] = a[i] + alpha*b[i]
		}
		fa := fir.Apply(a)
		fb := fir.Apply(b)
		fm := fir.Apply(mix)
		for i := range fm {
			want := fa[i] + alpha*fb[i]
			if math.Abs(fm[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyFullMatchesDirectConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	taps := make([]float64, 33)
	for i := range taps {
		taps[i] = rng.NormFloat64()
	}
	fir := NewFIR(taps)
	// Long enough to force the FFT path (n*m > 1<<16).
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := fir.ApplyFull(x)
	want := make([]float64, len(x)+len(taps)-1)
	for i := range x {
		for j := range taps {
			want[i+j] += x[i] * taps[j]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("length %d want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("sample %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestApplyPreservesAlignment(t *testing.T) {
	// An impulse through a linear-phase filter must stay at its position
	// after group-delay compensation.
	fir := LowPass(6000, 48000, 201)
	x := make([]float64, 1000)
	x[500] = 1
	y := fir.Apply(x)
	peak := argMaxAbs(y)
	if peak != 500 {
		t.Fatalf("impulse moved to %d, want 500", peak)
	}
}

// TestResponsePassStop evaluates the marker band-pass's magnitude
// response directly from its taps.
func TestResponsePassStop(t *testing.T) {
	fir := BandPass(6000, 12000, 48000, 511)
	responseDB := func(freq float64) float64 {
		omega := 2 * math.Pi * freq / 48000
		var re, im float64
		for i, tap := range fir.Taps {
			re += tap * math.Cos(omega*float64(i))
			im -= tap * math.Sin(omega*float64(i))
		}
		return 20 * math.Log10(math.Hypot(re, im))
	}
	if r := responseDB(9000); r < -1 {
		t.Fatalf("passband response %f dB, want ~0", r)
	}
	if r := responseDB(1000); r > -40 {
		t.Fatalf("stopband response %f dB, want < -40", r)
	}
}

// TestWindowShapes: the Hamming taper of the FIR designs is symmetric,
// non-negative and peaks at its center.
func TestWindowShapes(t *testing.T) {
	win := hammingWindow(65)
	if len(win) != 65 {
		t.Fatalf("len %d", len(win))
	}
	for i := 0; i < len(win)/2; i++ {
		if math.Abs(win[i]-win[len(win)-1-i]) > 1e-12 {
			t.Fatalf("not symmetric at %d", i)
		}
	}
	for i, v := range win {
		if v < -1e-12 {
			t.Fatalf("negative at %d: %g", i, v)
		}
	}
	if win[32] < win[0] {
		t.Fatalf("center %g below edge %g", win[32], win[0])
	}
}

func TestWindowDegenerateSizes(t *testing.T) {
	if len(hammingWindow(0)) != 0 {
		t.Error("hammingWindow(0) should be empty")
	}
	if w := hammingWindow(1); len(w) != 1 || w[0] != 1 {
		t.Error("hammingWindow(1) should be [1]")
	}
}

func TestOddify(t *testing.T) {
	if oddify(2) != 3 || oddify(3) != 3 || oddify(100) != 101 || oddify(0) != 3 {
		t.Fatal("oddify broken")
	}
}

func TestEmptyInputs(t *testing.T) {
	fir := LowPass(6000, 48000, 101)
	if out := fir.Apply(nil); len(out) != 0 {
		t.Fatal("Apply(nil) should be empty")
	}
	if out := fir.ApplyFull(nil); len(out) != 0 {
		t.Fatal("ApplyFull(nil) should be empty")
	}
}

func BenchmarkBandPassApply1s(b *testing.B) {
	fir := BandPass(6000, 12000, 48000, 511)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 48000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fir.Apply(x)
	}
}
