package acoustic

import (
	"math"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

func TestMicrophoneNames(t *testing.T) {
	if StudioMic.String() != "Studio Microphone" ||
		XboxHeadset.String() != "Xbox Stereo Headset" ||
		SamsungIG955.String() != "Samsung IG955 Earphone" {
		t.Fatal("microphone names")
	}
	if Microphone(42).String() != "Unknown Microphone" {
		t.Fatal("unknown name")
	}
}

func TestMicResponseShapes(t *testing.T) {
	// Studio: flat within a few dB across 100 Hz - 15 kHz.
	var studioMin, studioMax = math.Inf(1), math.Inf(-1)
	for f := 200.0; f <= 15000; f *= 1.5 {
		r := StudioMic.ResponseDB(f)
		if r < studioMin {
			studioMin = r
		}
		if r > studioMax {
			studioMax = r
		}
	}
	if studioMax-studioMin > 6 {
		t.Fatalf("studio mic swing %g dB, want < 6", studioMax-studioMin)
	}
	// Samsung: swing must exceed 25 dB (paper: >30 dB from lowest to
	// highest; our probe grid is coarse so allow 25).
	var sMin, sMax = math.Inf(1), math.Inf(-1)
	for f := 200.0; f <= 13000; f *= 1.3 {
		r := SamsungIG955.ResponseDB(f)
		if r < sMin {
			sMin = r
		}
		if r > sMax {
			sMax = r
		}
	}
	if sMax-sMin < 25 {
		t.Fatalf("samsung swing %g dB, want >= 25", sMax-sMin)
	}
	// Xbox sits between the two.
	var xMin, xMax = math.Inf(1), math.Inf(-1)
	for f := 200.0; f <= 14000; f *= 1.3 {
		r := XboxHeadset.ResponseDB(f)
		if r < xMin {
			xMin = r
		}
		if r > xMax {
			xMax = r
		}
	}
	swing := xMax - xMin
	if swing <= studioMax-studioMin || swing >= sMax-sMin {
		t.Fatalf("xbox swing %g should sit between studio %g and samsung %g",
			swing, studioMax-studioMin, sMax-sMin)
	}
}

func TestChannelDelay(t *testing.T) {
	c := Channel{Mic: StudioMic, DistanceFt: 6, Attenuation: 1, AmbientLevel: 0}
	if math.Abs(c.TotalDelaySec()-0.006) > 1e-12 {
		t.Fatalf("6 ft should be 6 ms, got %g", c.TotalDelaySec())
	}
	// An impulse must arrive ~288 samples (6 ms) later.
	b := audio.NewBuffer(audio.SampleRate, 9600)
	b.Samples[1000] = 1
	out := c.Transmit(b)
	peak := argMaxAbs(out.Samples)
	want := 1000 + 288
	if abs(peak-want) > 2 {
		t.Fatalf("impulse at %d want ~%d", peak, want)
	}
}

func TestChannelAttenuation(t *testing.T) {
	c := Channel{Mic: StudioMic, Attenuation: 0.1, AmbientLevel: 0}
	tone := audio.Tone(audio.SampleRate, 1000, 0.5, 0.8)
	out := c.Transmit(tone)
	ratio := out.RMS() / tone.RMS()
	if math.Abs(ratio-0.1) > 0.03 {
		t.Fatalf("attenuation ratio %g want ~0.1", ratio)
	}
}

func TestRoomAddsReverbTail(t *testing.T) {
	dry := Channel{Mic: StudioMic, Attenuation: 1, AmbientLevel: 0}
	wet := Channel{Mic: StudioMic, Attenuation: 1, AmbientLevel: 0, Room: DefaultRoom()}
	b := audio.NewBuffer(audio.SampleRate, 48000)
	// A burst in the first 100 ms.
	for i := 0; i < 4800; i++ {
		b.Samples[i] = math.Sin(2 * math.Pi * 800 * float64(i) / audio.SampleRate)
	}
	dryOut := dry.Transmit(b)
	wetOut := wet.Transmit(b)
	// Tail energy 200-400 ms after the burst must be higher with reverb.
	tail := func(x *audio.Buffer) float64 {
		return dsp.RMS(x.Samples[14400:19200])
	}
	if tail(wetOut) <= tail(dryOut)+1e-12 {
		t.Fatalf("reverb tail %g not above dry %g", tail(wetOut), tail(dryOut))
	}
}

func TestRoomImpulseDecays(t *testing.T) {
	h := DefaultRoom().impulse(audio.SampleRate)
	if len(h) == 0 {
		t.Fatal("default room should have an impulse response")
	}
	early := maxAbs(h[:len(h)/4])
	late := maxAbs(h[3*len(h)/4:])
	if late >= early {
		t.Fatalf("reflections should decay: early %g late %g", early, late)
	}
	if r := (Room{}); r.impulse(audio.SampleRate) != nil {
		t.Fatal("zero room should have nil impulse")
	}
}

func TestAmbientNoiseFloor(t *testing.T) {
	c := Channel{Mic: StudioMic, Attenuation: 1, AmbientLevel: 0.01, NoiseSeed: 3}
	silence := audio.NewBuffer(audio.SampleRate, 9600)
	out := c.Transmit(silence)
	if out.RMS() < 0.005 || out.RMS() > 0.02 {
		t.Fatalf("ambient floor RMS %g want ~0.01", out.RMS())
	}
	// Deterministic across calls.
	out2 := c.Transmit(silence)
	for i := range out.Samples {
		if out.Samples[i] != out2.Samples[i] {
			t.Fatal("ambient noise must be deterministic for a seed")
		}
	}
}

func TestTransmitMixedNearField(t *testing.T) {
	c := Channel{Mic: StudioMic, Attenuation: 0.1, AmbientLevel: 0}
	screen := audio.Tone(audio.SampleRate, 1000, 0.5, 0.5)
	voice := audio.Tone(audio.SampleRate, 300, 0.5, 0.5)
	out := c.TransmitMixed(screen, voice, 1.0)
	// The near-field voice must dominate the attenuated screen audio.
	vp := dsp.BandPower(out.Samples, audio.SampleRate, 200, 400)
	sp := dsp.BandPower(out.Samples, audio.SampleRate, 900, 1100)
	if vp < 5*sp {
		t.Fatalf("near-field %g should dominate overheard %g", vp, sp)
	}
	// nil near-field is allowed.
	if c.TransmitMixed(screen, nil, 1).Len() != screen.Len() {
		t.Fatal("nil near-field length")
	}
}

func TestDefaultChannelEndToEnd(t *testing.T) {
	c := DefaultChannel()
	tone := audio.Tone(audio.SampleRate, 3000, 1, 0.5)
	out := c.Transmit(tone)
	if out.Len() != tone.Len() {
		t.Fatalf("length changed: %d vs %d", out.Len(), tone.Len())
	}
	if out.RMS() <= 0 {
		t.Fatal("transmitted audio should be non-silent")
	}
	for _, v := range out.Samples {
		if math.IsNaN(v) {
			t.Fatal("NaN in channel output")
		}
	}
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestChannelSRODriftsImpulse(t *testing.T) {
	// A +500 ppm capture oscillator stretches the recording: an impulse
	// 2 s in lands 2 s · 500 µs/s = 48 samples later than without SRO.
	base := Channel{Mic: StudioMic, Attenuation: 1, AmbientLevel: 0}
	skewed := base
	skewed.SROPPM = 500
	b := audio.NewBuffer(audio.SampleRate, 3*audio.SampleRate)
	b.Samples[2*audio.SampleRate] = 1
	p0 := argMaxAbs(base.Transmit(b).Samples)
	p1 := argMaxAbs(skewed.Transmit(b).Samples)
	if shift := p1 - p0; abs(shift-48) > 2 {
		t.Fatalf("impulse shifted %d samples, want ~48", shift)
	}
}

func TestChannelZeroSROIdentical(t *testing.T) {
	// SROPPM = 0 must leave Transmit bit-identical to the pre-SRO model
	// (no resampling pass at all).
	c := DefaultChannel()
	cz := c
	cz.SROPPM = 0
	tone := audio.Tone(audio.SampleRate, 3000, 1, 0.5)
	a, bb := c.Transmit(tone), cz.Transmit(tone)
	for i := range a.Samples {
		if a.Samples[i] != bb.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], bb.Samples[i])
		}
	}
}

func BenchmarkTransmit1s(b *testing.B) {
	c := DefaultChannel()
	tone := audio.Tone(audio.SampleRate, 3000, 1, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit(tone)
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
