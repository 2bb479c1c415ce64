package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ekho/internal/audio"
	"ekho/internal/dsp"
	"ekho/internal/gamesynth"
)

// swb24Low0 is SWB24 at complexity 0, the cheapest encoder search.
var swb24Low0 = Profile{Name: "OPUS-like SWB 24kbps c0", BitrateKbps: 24, BandwidthHz: 12000, Complexity: 0}

func snr(clean, coded []float64) float64 {
	n := len(clean)
	if len(coded) < n {
		n = len(coded)
	}
	var sig, noise float64
	for i := 0; i < n; i++ {
		sig += clean[i] * clean[i]
		d := clean[i] - coded[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/noise)
}

func testClip(seconds float64) *audio.Buffer {
	return gamesynth.Generate(gamesynth.Catalog()[0], seconds)
}

func TestLosslessRoundTripExact(t *testing.T) {
	b := testClip(1)
	rt, err := RoundTripAligned(b, Lossless)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rt.Samples {
		if rt.Samples[i] != b.Samples[i] {
			t.Fatalf("lossless mismatch at %d", i)
		}
	}
}

func TestPerfectReconstructionWithoutQuantization(t *testing.T) {
	// With a huge bitrate the transform path itself must be near-perfect
	// (COLA property of the sqrt-Hann window pair).
	p := Profile{Name: "hi", BitrateKbps: 10000, BandwidthHz: 24000, Complexity: 10}
	b := testClip(1)
	rt, err := RoundTripAligned(b, p)
	if err != nil {
		t.Fatal(err)
	}
	s := snr(b.Samples[960:b.Len()-960], rt.Samples[960:b.Len()-960])
	if s < 40 {
		t.Fatalf("transform SNR %g dB, want > 40", s)
	}
}

func TestSNRMonotonicInBitrate(t *testing.T) {
	b := testClip(2)
	profiles := []Profile{
		{Name: "8k", BitrateKbps: 8, BandwidthHz: 12000, Complexity: 4},
		SWB24,
		SWB32,
		{Name: "96k", BitrateKbps: 96, BandwidthHz: 12000, Complexity: 4},
	}
	var last float64 = math.Inf(-1)
	for _, p := range profiles {
		rt, err := RoundTripAligned(b, p)
		if err != nil {
			t.Fatal(err)
		}
		s := snr(b.Samples[960:b.Len()-960], rt.Samples[960:b.Len()-960])
		if s < last-1 { // allow 1 dB tolerance for allocation noise
			t.Fatalf("SNR not monotone: %s gives %g after %g", p.Name, s, last)
		}
		if s > last {
			last = s
		}
	}
}

func TestBandwidthLimiting(t *testing.T) {
	// A 15 kHz tone must be killed by SWB (12 kHz) profiles.
	tone := audio.Tone(audio.SampleRate, 15000, 1, 0.5)
	rt, err := RoundTripAligned(tone, SWB32)
	if err != nil {
		t.Fatal(err)
	}
	if p := dsp.BandPower(rt.Samples, audio.SampleRate, 14000, 16000); p > 1e-4 {
		t.Fatalf("15 kHz tone survived SWB: power %g", p)
	}
	// But an 9 kHz tone (marker band) must survive.
	tone9 := audio.Tone(audio.SampleRate, 9000, 1, 0.5)
	rt9, err := RoundTripAligned(tone9, SWB32)
	if err != nil {
		t.Fatal(err)
	}
	if p := dsp.BandPower(rt9.Samples[4800:43200], audio.SampleRate, 8500, 9500); p < 0.05 {
		t.Fatalf("9 kHz tone destroyed by SWB: power %g", p)
	}
}

func TestMarkerBandDegradesWithHarsherSettings(t *testing.T) {
	// Noise in the marker band (6-12 kHz) under game audio: harsher
	// encodes must add more error energy in that band.
	rng := rand.New(rand.NewSource(3))
	clip := testClip(2)
	marker := audio.NewBuffer(audio.SampleRate, clip.Len())
	bp := dsp.BandPass(6000, 12000, audio.SampleRate, 255)
	noise := make([]float64, clip.Len())
	for i := range noise {
		noise[i] = rng.NormFloat64() * 0.02
	}
	copy(marker.Samples, bp.Apply(noise))
	mixed := audio.Mix(clip, marker)

	errBand := func(p Profile) float64 {
		rt, err := RoundTripAligned(mixed, p)
		if err != nil {
			t.Fatal(err)
		}
		diff := make([]float64, mixed.Len())
		for i := range diff {
			diff[i] = rt.Samples[i] - mixed.Samples[i]
		}
		return dsp.BandPower(diff[960:len(diff)-960], audio.SampleRate, 6000, 12000)
	}
	e32 := errBand(SWB32)
	e24 := errBand(SWB24)
	if e24 < e32 {
		t.Fatalf("24 kbps should distort marker band at least as much as 32 kbps: %g vs %g", e24, e32)
	}
}

func TestLowComplexityWorse(t *testing.T) {
	b := testClip(2)
	// At a comfortable bitrate both allocators are near-transparent; the
	// water-filling advantage shows when bits are scarce.
	lo4 := Profile{Name: "8k c4", BitrateKbps: 8, BandwidthHz: 12000, Complexity: 4}
	lo0 := Profile{Name: "8k c0", BitrateKbps: 8, BandwidthHz: 12000, Complexity: 0}
	rtHi, err := RoundTripAligned(b, lo4)
	if err != nil {
		t.Fatal(err)
	}
	rtLo, err := RoundTripAligned(b, lo0)
	if err != nil {
		t.Fatal(err)
	}
	sHi := snr(b.Samples[960:b.Len()-960], rtHi.Samples[960:b.Len()-960])
	sLo := snr(b.Samples[960:b.Len()-960], rtLo.Samples[960:b.Len()-960])
	if sLo > sHi+0.1 {
		t.Fatalf("complexity 0 should not beat complexity 4 at 8 kbps: %g vs %g dB", sLo, sHi)
	}
	// And at the paper's 24 kbps the two must at least be comparable.
	rt24Hi, _ := RoundTripAligned(b, SWB24)
	rt24Lo, _ := RoundTripAligned(b, swb24Low0)
	s24Hi := snr(b.Samples[960:b.Len()-960], rt24Hi.Samples[960:b.Len()-960])
	s24Lo := snr(b.Samples[960:b.Len()-960], rt24Lo.Samples[960:b.Len()-960])
	if s24Lo > s24Hi+0.5 {
		t.Fatalf("complexity 0 beats complexity 4 at 24 kbps by too much: %g vs %g dB", s24Lo, s24Hi)
	}
}

func TestEncodeRejectsBadFrame(t *testing.T) {
	enc := NewEncoder(SWB32)
	if _, err := enc.Encode(make([]float64, 100)); err == nil {
		t.Fatal("short frame should error")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	dec := NewDecoder(SWB32)
	if _, err := dec.Decode(nil); err == nil {
		t.Fatal("nil packet")
	}
	if _, err := dec.Decode([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("bad magic")
	}
	enc := NewEncoder(SWB32)
	pkt, err := enc.Encode(make([]float64, FrameSamples))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(pkt[:len(pkt)/2]); err == nil {
		t.Fatal("truncated packet should error")
	}
	// A lossless decoder has no transform, so it refuses a block even when
	// the block's band layout is its profile's.
	full := Profile{Name: "full-band lossy", BitrateKbps: 32, BandwidthHz: Lossless.BandwidthHz, Complexity: 4}
	blk, err := NewEncoder(full).Encode(make([]float64, FrameSamples))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(Lossless).Decode(blk); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("lossless decoder on a transform block: err %v, want ErrBadPacket", err)
	}
}

func TestStreamingDelayIsOneHop(t *testing.T) {
	// An impulse fed to the streaming encoder appears Delay() samples
	// later in the decoded stream.
	p := SWB32
	enc := NewEncoder(p)
	dec := NewDecoder(p)
	in := audio.NewBuffer(audio.SampleRate, 4*FrameSamples)
	in.Samples[1000] = 1
	out := audio.NewBuffer(audio.SampleRate, 0)
	for _, f := range in.Frames(FrameSamples) {
		pkt, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		out.AppendFrame(d)
	}
	peak := argMaxAbs(out.Samples)
	want := 1000 + p.Delay()
	if abs(peak-want) > 2 {
		t.Fatalf("impulse at %d, want ~%d", peak, want)
	}
}

func TestConcealProducesDecayingOutput(t *testing.T) {
	p := SWB32
	enc := NewEncoder(p)
	dec := NewDecoder(p)
	tone := audio.Tone(audio.SampleRate, 2000, 0.2, 0.5)
	for _, f := range tone.Frames(FrameSamples) {
		pkt, _ := enc.Encode(f)
		if _, err := dec.Decode(pkt); err != nil {
			t.Fatal(err)
		}
	}
	c1 := dec.ConcealTo(nil)
	c2 := dec.ConcealTo(nil)
	if len(c1) != FrameSamples || len(c2) != FrameSamples {
		t.Fatalf("conceal lengths %d %d", len(c1), len(c2))
	}
	p1 := dsp.RMS(c1)
	p2 := dsp.RMS(c2)
	if p1 == 0 {
		t.Fatal("first concealment should carry energy")
	}
	if p2 >= p1 {
		t.Fatalf("concealment should decay: %g then %g", p1, p2)
	}
}

func TestConcealBeforeAnyDecode(t *testing.T) {
	dec := NewDecoder(SWB32)
	c := dec.ConcealTo(nil)
	if len(c) != FrameSamples {
		t.Fatalf("len %d", len(c))
	}
	for _, v := range c {
		if v != 0 {
			t.Fatal("conceal with no history should be silence")
		}
	}
}

func TestULLModeRoundTrips(t *testing.T) {
	b := testClip(1)
	rt, err := RoundTripAligned(b, SWB24ULL)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != b.Len() {
		t.Fatalf("len %d want %d", rt.Len(), b.Len())
	}
	s := snr(b.Samples[960:b.Len()-960], rt.Samples[960:b.Len()-960])
	if s < 3 {
		t.Fatalf("ULL SNR %g dB too low to be usable", s)
	}
}

func TestRoundTripPropertyNoNaNs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := audio.NewBuffer(audio.SampleRate, 3*FrameSamples)
		for i := range b.Samples {
			b.Samples[i] = r.Float64()*2 - 1
		}
		rt, err := RoundTrip(b, SWB24)
		if err != nil {
			return false
		}
		for _, v := range rt.Samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return rt.Len() == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeBandsCoverage(t *testing.T) {
	// MDCT with hop 960: 12 kHz of bandwidth covers the first 480 bins.
	bands := makeBands(960, 12000)
	maxBin := int(12000.0 / (audio.SampleRate / 2) * 960)
	if bands[0].lo != 0 {
		t.Fatal("first band must start at DC")
	}
	for i := 1; i < len(bands); i++ {
		if bands[i].lo != bands[i-1].hi {
			t.Fatalf("gap between bands %d and %d", i-1, i)
		}
	}
	if bands[len(bands)-1].hi != maxBin {
		t.Fatalf("last band ends at %d want %d", bands[len(bands)-1].hi, maxBin)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func BenchmarkEncodeFrame(b *testing.B) {
	enc := NewEncoder(SWB32)
	frame := make([]float64, FrameSamples)
	rng := rand.New(rand.NewSource(1))
	for i := range frame {
		frame[i] = rng.NormFloat64() * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTrip1s(b *testing.B) {
	clip := testClip(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RoundTrip(clip, SWB32); err != nil {
			b.Fatal(err)
		}
	}
}

// Wire floats are outside input: a frame carrying NaN, ±Inf or an absurd
// magnitude must be refused whole (no partial output, decoder state left
// usable), on the lossless sample words and the lossy band scales alike.
func TestDecodeRejectsNonFiniteAndHugeValues(t *testing.T) {
	frame := make([]float64, FrameSamples)
	for i := range frame {
		frame[i] = 0.25 * math.Sin(float64(i)/7)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -17} {
		pkt, err := NewEncoder(Lossless).Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pkt[3+8*500:], math.Float64bits(bad))
		out, err := NewDecoder(Lossless).DecodeTo(make([]float64, 0, FrameSamples), pkt)
		if !errors.Is(err, ErrBadPacket) || len(out) != 0 {
			t.Fatalf("lossless sample %g: err %v, %d samples out", bad, err, len(out))
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30} {
		pkt, err := NewEncoder(SWB32).Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		// The first band's scale sits right after magic, tag and band count.
		binary.LittleEndian.PutUint32(pkt[3:], math.Float32bits(bad))
		dec := NewDecoder(SWB32)
		if _, err := dec.Decode(pkt); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("lossy scale %g: err %v", bad, err)
		}
		for _, v := range dec.ConcealTo(nil) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("lossy scale %g poisoned the decoder state", bad)
			}
		}
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
