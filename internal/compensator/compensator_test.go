package compensator

import (
	"math"
	"testing"

	"ekho/internal/audio"
)

func TestHysteresisBelowThreshold(t *testing.T) {
	c := New(Config{})
	if a := c.Offer(0, 0.004); a != nil {
		t.Fatalf("4 ms below 5 ms threshold should not act: %+v", a)
	}
	if a := c.Offer(0, -0.004); a != nil {
		t.Fatal("negative small ISD should not act")
	}
}

func TestPositiveISDDelaysAccessory(t *testing.T) {
	c := New(Config{})
	a := c.Offer(0, 0.060) // screen lags by 60 ms
	if a == nil {
		t.Fatal("expected action")
	}
	if a.Stream != AccessoryStream {
		t.Fatalf("stream %v want accessory", a.Stream)
	}
	if a.InsertFrames != 3 || a.SkipFrames != 0 {
		t.Fatalf("action %+v want insert 3 frames", a)
	}
	if math.Abs(a.TotalDelaySeconds()-0.060) > 1e-9 {
		t.Fatalf("delay %g", a.TotalDelaySeconds())
	}
}

func TestNegativeISDDelaysScreen(t *testing.T) {
	c := New(Config{})
	a := c.Offer(0, -0.436) // the Figure 9 startup case: controller leads by 436 ms
	if a == nil {
		t.Fatal("expected action")
	}
	if a.Stream != ScreenStream {
		t.Fatalf("stream %v want screen", a.Stream)
	}
	// 436 ms = 20,928 samples: 21 frames and 768 samples, which rounds
	// to the paper's "Ekho adds 22 frames of 20 ms length".
	if a.InsertFrames != 21 || a.InsertSamples != 768 {
		t.Fatalf("action %+v want 21 frames and 768 samples", a)
	}
	if frames := math.Round(a.TotalDelaySeconds() / 0.020); frames != 22 {
		t.Fatalf("rounds to %g frames, want 22", frames)
	}
}

// A correction is rounded once, to whole samples, and then split into
// frames and a sample remainder, so the remainder is never a whole frame.
func TestFrameQuantizationRounding(t *testing.T) {
	const fs = audio.FrameSamples
	for _, tc := range []struct {
		isdSamples  float64
		frames, rem int
	}{
		{336, 0, 336}, // 7 ms: corrected, though below one frame
		{959.4, 0, 959},
		{959.6, 1, 0}, // rounds up onto the frame boundary
		{959.99, 1, 0},
		{960, 1, 0},
		{960.4, 1, 0},
		{1152, 1, 192}, // 24 ms
		{1488, 1, 528}, // 31 ms
		{2*fs - 0.6, 1, fs - 1},
		{2*fs - 0.4, 2, 0},
	} {
		for _, sign := range []float64{1, -1} {
			a := New(Config{}).Offer(0, sign*tc.isdSamples/audio.SampleRate)
			if a == nil || a.InsertFrames != tc.frames || a.InsertSamples != tc.rem {
				t.Errorf("ISD %+g samples: %+v, want %d frames %d samples", sign*tc.isdSamples, a, tc.frames, tc.rem)
			}
		}
	}
}

func TestSubFrameMode(t *testing.T) {
	c := New(Config{})
	a := c.Offer(0, 0.0075) // 7.5 ms = 360 samples
	if a == nil {
		t.Fatal("a 7.5 ms ISD should be corrected")
	}
	if a.InsertFrames != 0 || a.InsertSamples != 360 {
		t.Fatalf("action %+v want 360 samples", a)
	}
	if math.Abs(a.TotalDelaySeconds()-0.0075) > 1e-9 {
		t.Fatalf("delay %g", a.TotalDelaySeconds())
	}
}

func TestSettlingWindowIgnoresMeasurements(t *testing.T) {
	c := New(Config{SettleSec: 4})
	if c.Offer(10, 0.1) == nil {
		t.Fatal("first measurement should act")
	}
	if a := c.Offer(12, 0.5); a != nil {
		t.Fatalf("measurement during settling should be ignored: %+v", a)
	}
	if c.Offer(14.5, 0.1) == nil {
		t.Fatal("after settling should act again")
	}
}

func TestStreamString(t *testing.T) {
	if ScreenStream.String() != "screen" || AccessoryStream.String() != "accessory" {
		t.Fatal("stream names")
	}
}

func rms(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}
