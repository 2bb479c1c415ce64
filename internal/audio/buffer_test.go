package audio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBufferBasics(t *testing.T) {
	b := NewBuffer(SampleRate, 48000)
	if b.Duration() != 1.0 {
		t.Fatalf("duration %g want 1", b.Duration())
	}
	if b.Len() != 48000 {
		t.Fatalf("len %d", b.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	b := FromSamples(SampleRate, []float64{1, 2, 3})
	c := b.Clone()
	c.Samples[0] = 99
	if b.Samples[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestSliceClamping(t *testing.T) {
	b := FromSamples(SampleRate, []float64{1, 2, 3, 4})
	if s := b.Slice(-5, 100); s.Len() != 4 {
		t.Fatalf("clamped slice len %d", s.Len())
	}
	if s := b.Slice(3, 1); s.Len() != 0 {
		t.Fatalf("inverted slice should be empty, got %d", s.Len())
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.Samples[0] != 2 {
		t.Fatalf("slice content wrong: %v", s.Samples)
	}
}

func TestFramesPadding(t *testing.T) {
	b := FromSamples(SampleRate, make([]float64, 2500))
	frames := b.Frames(960)
	if len(frames) != 3 {
		t.Fatalf("frame count %d want 3", len(frames))
	}
	for i, f := range frames {
		if len(f) != 960 {
			t.Fatalf("frame %d len %d", i, len(f))
		}
	}
	if b.Frames(0) != nil {
		t.Fatal("nonpositive frameLen should give nil")
	}
}

func TestFramesRoundTripProperty(t *testing.T) {
	f := func(seed int64, lenSel uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(lenSel)%5000 + 1
		b := NewBuffer(SampleRate, n)
		for i := range b.Samples {
			b.Samples[i] = r.Float64()*2 - 1
		}
		out := NewBuffer(SampleRate, 0)
		for _, fr := range b.Frames(FrameSamples) {
			out.AppendFrame(fr)
		}
		// Reassembled stream must reproduce the original with zero pad.
		if out.Len() < n {
			return false
		}
		for i := 0; i < n; i++ {
			if out.Samples[i] != b.Samples[i] {
				return false
			}
		}
		for i := n; i < out.Len(); i++ {
			if out.Samples[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMixIntoOffsets(t *testing.T) {
	b := NewBuffer(SampleRate, 5)
	b.MixInto([]float64{1, 1, 1}, 3, 2) // extends past end
	if b.Samples[3] != 2 || b.Samples[4] != 2 {
		t.Fatalf("tail mix wrong: %v", b.Samples)
	}
	b2 := NewBuffer(SampleRate, 5)
	b2.MixInto([]float64{1, 1, 1}, -2, 1) // head dropped
	if b2.Samples[0] != 1 || b2.Samples[1] != 0 {
		t.Fatalf("negative offset mix wrong: %v", b2.Samples)
	}
}

func TestMixLengthsAndPanic(t *testing.T) {
	a := FromSamples(SampleRate, []float64{1, 1})
	b := FromSamples(SampleRate, []float64{1, 1, 1})
	m := Mix(a, b)
	if m.Len() != 3 || m.Samples[0] != 2 || m.Samples[2] != 1 {
		t.Fatalf("mix wrong: %v", m.Samples)
	}
	if Mix().Len() != 0 {
		t.Fatal("empty mix")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rate mismatch should panic")
		}
	}()
	Mix(a, FromSamples(44100, []float64{1}))
}

func TestGainClipNormalize(t *testing.T) {
	b := FromSamples(SampleRate, []float64{0.5, -0.5})
	b.Gain(4)
	if b.Samples[0] != 2 || b.Samples[1] != -2 {
		t.Fatalf("gain values: %v", b.Samples)
	}
	c := FromSamples(SampleRate, []float64{0.2, -0.1})
	c.Normalize(0.9)
	if math.Abs(c.PeakAbs()-0.9) > 1e-12 {
		t.Fatalf("normalized peak %g", c.PeakAbs())
	}
	s := NewBuffer(SampleRate, 4)
	s.Normalize(0.9) // silent: no change, no NaN
	if s.PeakAbs() != 0 {
		t.Fatal("silent normalize should stay silent")
	}
}

func TestRMSAndDBFS(t *testing.T) {
	tone := Tone(SampleRate, 1000, 0.5, 1.0)
	if math.Abs(tone.RMS()-math.Sqrt(0.5)) > 0.01 {
		t.Fatalf("sine RMS %g want %g", tone.RMS(), math.Sqrt(0.5))
	}
	if math.Abs(tone.DBFS()-(-3.01)) > 0.2 {
		t.Fatalf("sine dBFS %g want ~-3", tone.DBFS())
	}
	if !math.IsInf(NewBuffer(SampleRate, 10).DBFS(), -1) {
		t.Fatal("silence should be -inf dBFS")
	}
}

func TestSilence(t *testing.T) {
	s := NewBuffer(SampleRate, SampleRate/10)
	if s.Len() != 4800 {
		t.Fatalf("len %d", s.Len())
	}
	if s.RMS() != 0 {
		t.Fatal("silence should be zero")
	}
}

func TestStringIncludesRate(t *testing.T) {
	s := Tone(SampleRate, 440, 0.01, 0.5).String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}
