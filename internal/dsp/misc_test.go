package dsp

import (
	"math"
	"testing"
)

func TestWindowShapes(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		win := w.Make(65)
		if len(win) != 65 {
			t.Fatalf("%v: len %d", w, len(win))
		}
		// Symmetry.
		for i := 0; i < len(win)/2; i++ {
			if math.Abs(win[i]-win[len(win)-1-i]) > 1e-12 {
				t.Fatalf("%v not symmetric at %d", w, i)
			}
		}
		// Peak at center, nonnegative.
		for i, v := range win {
			if v < -1e-12 {
				t.Fatalf("%v negative at %d: %g", w, i, v)
			}
		}
		if w != Rectangular && win[32] < win[0] {
			t.Fatalf("%v: center %g below edge %g", w, win[32], win[0])
		}
	}
	if (Hann).String() != "hann" || (Rectangular).String() != "rectangular" {
		t.Error("Window.String broken")
	}
}

func TestWindowDegenerateSizes(t *testing.T) {
	if len(Hann.Make(0)) != 0 {
		t.Error("Make(0) should be empty")
	}
	if w := Hamming.Make(1); len(w) != 1 || w[0] != 1 {
		t.Error("Make(1) should be [1]")
	}
}

func TestRMSAndMeanPower(t *testing.T) {
	if RMS(nil) != 0 || MeanPower(nil) != 0 {
		t.Error("empty inputs should be 0")
	}
	x := []float64{3, -3, 3, -3}
	if RMS(x) != 3 {
		t.Errorf("RMS=%g want 3", RMS(x))
	}
	if MeanPower(x) != 9 {
		t.Errorf("MeanPower=%g want 9", MeanPower(x))
	}
}

func TestBiquadLowPass(t *testing.T) {
	const sr = 48000.0
	q := NewLowPassBiquad(1000, sr, 0.707)
	low := q.Apply(sine(100, sr, 9600))
	q.Reset()
	high := q.Apply(sine(10000, sr, 9600))
	lp := MeanPower(low[2000:])
	hp := MeanPower(high[2000:])
	if lp < 0.3 {
		t.Fatalf("passband power %g", lp)
	}
	if hp > lp/100 {
		t.Fatalf("stopband power %g vs pass %g", hp, lp)
	}
}

func TestBiquadPeakingBoost(t *testing.T) {
	const sr = 48000.0
	q := NewPeakingBiquad(3000, sr, 1.0, 12)
	boosted := q.Apply(sine(3000, sr, 9600))
	bp := MeanPower(boosted[2000:])
	// +12 dB power gain is ~15.8x over the input's 0.5.
	if bp < 4 || bp > 10 {
		t.Fatalf("boosted power %g, want ~7.9", bp)
	}
}

func TestChain(t *testing.T) {
	const sr = 48000.0
	c := Chain{NewHighPassBiquad(500, sr, 0.707), NewLowPassBiquad(8000, sr, 0.707)}
	mid := c.Apply(sine(2000, sr, 9600))
	c.Reset()
	lo := c.Apply(sine(50, sr, 9600))
	mp := MeanPower(mid[2000:])
	lp := MeanPower(lo[2000:])
	if mp < 0.3 {
		t.Fatalf("mid power %g", mp)
	}
	if lp > mp/50 {
		t.Fatalf("low power %g should be attenuated vs %g", lp, mp)
	}
}

func TestResampleLinear(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := ResampleLinear(x, 7)
	if len(y) != 7 {
		t.Fatalf("len %d", len(y))
	}
	if y[0] != 0 || y[6] != 3 {
		t.Fatalf("endpoints %g %g", y[0], y[6])
	}
	for i := 1; i < len(y); i++ {
		if y[i] < y[i-1] {
			t.Fatal("monotone input should stay monotone")
		}
	}
	if len(ResampleLinear(nil, 5)) != 0 {
		t.Error("empty input")
	}
	if len(ResampleLinear(x, 0)) != 0 {
		t.Error("zero output length")
	}
	one := ResampleLinear(x, 1)
	if len(one) != 1 || one[0] != 0 {
		t.Errorf("single output: %v", one)
	}
	cons := ResampleLinear([]float64{5}, 4)
	for _, v := range cons {
		if v != 5 {
			t.Fatal("constant extrapolation of single sample")
		}
	}
}

func TestFractionalDelayInteger(t *testing.T) {
	x := make([]float64, 100)
	x[10] = 1
	y := FractionalDelay(x, 5)
	if ArgMaxAbs(y) != 15 {
		t.Fatalf("peak at %d want 15", ArgMaxAbs(y))
	}
}

func TestFractionalDelaySubSample(t *testing.T) {
	// Delay a band-limited signal by 0.5 samples twice; the result should
	// align with a 1-sample integer shift.
	const sr = 48000.0
	x := sine(2000, sr, 2000)
	half := FractionalDelay(x, 0.5)
	full := FractionalDelay(half, 0.5)
	want := FractionalDelay(x, 1)
	var maxErr float64
	for i := 100; i < len(x)-100; i++ {
		if e := math.Abs(full[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-3 {
		t.Fatalf("two half-sample delays differ from one full: max err %g", maxErr)
	}
}

func TestCheckLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CheckLen("x", 3, 4)
}
