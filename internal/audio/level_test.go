package audio

import (
	"math"
	"testing"
)

func TestAWeightShape(t *testing.T) {
	// 0 dB at 1 kHz, strong attenuation at low frequency, mild dip high.
	at1k := 20 * math.Log10(AWeight(1000))
	if math.Abs(at1k) > 0.2 {
		t.Fatalf("A-weight at 1 kHz = %g dB, want ~0", at1k)
	}
	at100 := 20 * math.Log10(AWeight(100))
	if at100 > -15 || at100 < -25 {
		t.Fatalf("A-weight at 100 Hz = %g dB, want ~-19", at100)
	}
	at10k := 20 * math.Log10(AWeight(10000))
	if math.Abs(at10k-(-2.5)) > 1.5 {
		t.Fatalf("A-weight at 10 kHz = %g dB, want ~-2.5", at10k)
	}
	if AWeight(0) != 0 || AWeight(-5) != 0 {
		t.Fatal("nonpositive frequency should weight 0")
	}
}

func TestDBARelativeLevels(t *testing.T) {
	// Same amplitude at 1 kHz vs 100 Hz: the 100 Hz tone must read much
	// quieter in dBA.
	a := DBA(Tone(SampleRate, 1000, 0.5, 0.5))
	b := DBA(Tone(SampleRate, 100, 0.5, 0.5))
	if a-b < 15 {
		t.Fatalf("1 kHz should be >=15 dBA above 100 Hz: %g vs %g", a, b)
	}
	if math.IsInf(a, -1) {
		t.Fatal("tone should have finite dBA")
	}
	if !math.IsInf(DBA(NewBuffer(SampleRate, 100)), -1) {
		t.Fatal("silence should be -inf dBA")
	}
}

func TestDBAGainMonotonic(t *testing.T) {
	quiet := Tone(SampleRate, 2000, 0.5, 0.05)
	loud := Tone(SampleRate, 2000, 0.5, 0.5)
	dq, dl := DBA(quiet), DBA(loud)
	if math.Abs((dl-dq)-20) > 0.5 {
		t.Fatalf("10x gain should be +20 dBA, got %g", dl-dq)
	}
}

func TestMedianFrameDBA(t *testing.T) {
	// Half silence, half tone: the median of frames should track the tone
	// frames only if they are the majority; build 70% tone.
	tone := Tone(SampleRate, 1000, 0.7, 0.5)
	sig := Mix(tone, NewBuffer(SampleRate, SampleRate))
	m := MedianFrameDBA(sig)
	full := DBA(tone)
	if math.Abs(m-full) > 3 {
		t.Fatalf("median %g vs tone level %g", m, full)
	}
	if !math.IsInf(MedianFrameDBA(NewBuffer(SampleRate, 0)), -1) {
		t.Fatal("empty buffer median should be -inf")
	}
}

func TestGainForDBA(t *testing.T) {
	tone := Tone(SampleRate, 1000, 0.5, 0.2)
	target := MedianFrameDBA(tone) - 5
	g := GainForDBA(tone, target)
	adjusted := tone.Clone().Gain(g)
	got := MedianFrameDBA(adjusted)
	if math.Abs(got-target) > 0.5 {
		t.Fatalf("adjusted level %g want %g", got, target)
	}
	if GainForDBA(NewBuffer(SampleRate, 10), 40) != 1 {
		t.Fatal("silent buffer gain should be 1")
	}
}

func TestMedianHelper(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
}

func dominantFreq(b *Buffer) float64 {
	bestF, bestP := 0.0, -1.0
	for f := 500.0; f <= 8000; f += 100 {
		p := goertzelPower(b, f)
		if p > bestP {
			bestP, bestF = p, f
		}
	}
	return bestF
}

func goertzelPower(b *Buffer, freq float64) float64 {
	w := 2 * math.Pi * freq / float64(b.Rate)
	coeff := 2 * math.Cos(w)
	var s1, s2 float64
	for _, v := range b.Samples {
		s0 := v + coeff*s1 - s2
		s2, s1 = s1, s0
	}
	return s1*s1 + s2*s2 - coeff*s1*s2
}
