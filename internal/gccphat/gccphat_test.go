package gccphat

import (
	"math"
	"math/rand"
	"testing"

	"ekho/internal/acoustic"
	"ekho/internal/audio"
	"ekho/internal/gamesynth"
)

func shiftBuffer(b *audio.Buffer, samples int) *audio.Buffer {
	out := audio.NewBuffer(b.Rate, b.Len())
	for i := range out.Samples {
		src := i - samples
		if src >= 0 && src < b.Len() {
			out.Samples[i] = b.Samples[src]
		}
	}
	return out
}

func TestEstimateRecoversKnownDelay(t *testing.T) {
	clip := gamesynth.Generate(gamesynth.Catalog()[0], 3)
	for _, delayMs := range []float64{0, 10, 50, -30, 120} {
		shift := int(delayMs / 1000 * audio.SampleRate)
		rec := shiftBuffer(clip, shift)
		// The middle segment sits wholly inside the shifted recording.
		got := EstimateSegments(clip, rec, 1)[1].ISDSeconds
		if math.Abs(got-delayMs/1000) > 0.001 {
			t.Fatalf("delay %g ms: estimated %g s", delayMs, got)
		}
	}
}

func TestEstimateCleanChannelAccuracy(t *testing.T) {
	// Paper: "Whenever Ekho and GCC-PHAT are able to measure ISD ... they
	// achieve good accuracy (< 2 ms ISD error)."
	clip := gamesynth.Generate(gamesynth.Catalog()[2], 3)
	ch := acoustic.Channel{Mic: acoustic.StudioMic, Attenuation: 0.2, AmbientLevel: 0.0001, NoiseSeed: 1}
	rec := ch.Transmit(clip) // 0 extra delay beyond channel's own
	for _, m := range EstimateSegments(clip, rec, 1) {
		if math.Abs(m.ISDSeconds) > 0.002 {
			t.Fatalf("estimated %g s on clean channel, want ~0 (propagation excluded)", m.ISDSeconds)
		}
	}
}

func TestChatterBreaksGCCPHAT(t *testing.T) {
	// With chatter as loud as the game audio, GCC-PHAT's phase is
	// dominated by the near-field voice and estimates become garbage for
	// at least some windows — the Figure 12 effect.
	rng := rand.New(rand.NewSource(4))
	clip := gamesynth.Generate(gamesynth.Catalog()[0], 6)
	chatter := gamesynth.Babble(rng, 6, 3)
	ch := acoustic.Channel{Mic: acoustic.XboxHeadset, Attenuation: 0.1, AmbientLevel: 0.001, NoiseSeed: 2}
	rec := ch.TransmitMixed(clip, chatter, 0.5)

	ms := EstimateSegments(clip, rec, 1)
	if len(ms) == 0 {
		t.Fatal("no segments")
	}
	bad := 0
	for _, m := range ms {
		// Channel delay is 0 ft here; good estimates are ~0.
		if !m.Plausible || math.Abs(m.ISDSeconds) > 0.005 {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("loud chatter should corrupt at least one GCC-PHAT segment")
	}
}

func TestEstimateWindowedBasics(t *testing.T) {
	clip := gamesynth.Generate(gamesynth.Catalog()[4], 4)
	rec := shiftBuffer(clip, 480) // 10 ms
	ms := EstimateSegments(clip, rec, 1)
	if len(ms) != 4 {
		t.Fatalf("windows %d want 4", len(ms))
	}
	for i, m := range ms {
		if m.WindowStart != float64(i) {
			t.Fatalf("window %d start %g", i, m.WindowStart)
		}
	}
	if EstimateSegments(clip, rec, 0) != nil {
		t.Fatal("zero window should give nil")
	}
}

func TestPlausibilityRule(t *testing.T) {
	m := Measurement{ISDSeconds: 0.4, Plausible: math.Abs(0.4) <= MaxPlausibleISDSeconds}
	if m.Plausible {
		t.Fatal("400 ms should be implausible")
	}
	clip := gamesynth.Generate(gamesynth.Catalog()[1], 2)
	// Completely unrelated recording: estimates are arbitrary; the rule
	// just flags big ones. Verify the field is consistent.
	other := gamesynth.Generate(gamesynth.Catalog()[9], 2)
	for _, mm := range EstimateSegments(clip, other, 1) {
		if mm.Plausible != (math.Abs(mm.ISDSeconds) <= MaxPlausibleISDSeconds) {
			t.Fatal("plausibility flag inconsistent")
		}
	}
}

func TestEstimateEmpty(t *testing.T) {
	if ms := EstimateSegments(audio.NewBuffer(audio.SampleRate, 0), audio.NewBuffer(audio.SampleRate, 0), 1); ms != nil {
		t.Fatalf("empty estimate %v", ms)
	}
}

func BenchmarkEstimate1s(b *testing.B) {
	clip := gamesynth.Generate(gamesynth.Catalog()[0], 1)
	rec := shiftBuffer(clip, 480)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateSegments(clip, rec, 1)
	}
}

func TestEstimateSegmentsRecoversDelay(t *testing.T) {
	clip := gamesynth.Generate(gamesynth.Catalog()[5], 4)
	rec := shiftBuffer(clip, 2400) // 50 ms
	ms := EstimateSegments(clip, rec, 1)
	if len(ms) != 4 {
		t.Fatalf("estimates %d want 4", len(ms))
	}
	good := 0
	for _, m := range ms {
		if m.Plausible && math.Abs(m.ISDSeconds-0.05) < 0.001 {
			good++
		}
	}
	if good < 3 {
		t.Fatalf("only %d/4 segments recovered the 50 ms delay", good)
	}
	if EstimateSegments(clip, rec, 0) != nil {
		t.Fatal("zero segment should give nil")
	}
}

func TestEstimateSegmentsGarbageOnUnrelatedAudio(t *testing.T) {
	// A reference unrelated to the recording yields wide-lag garbage that
	// the 300 ms rule mostly rejects — the Figure 12 collapse mechanism.
	ref := gamesynth.Generate(gamesynth.Catalog()[7], 6)
	other := gamesynth.Generate(gamesynth.Catalog()[11], 6)
	ms := EstimateSegments(ref, other, 1)
	if len(ms) == 0 {
		t.Fatal("no segments")
	}
	accepted := 0
	for _, m := range ms {
		if m.Plausible {
			accepted++
		}
	}
	if float64(accepted)/float64(len(ms)) > 0.5 {
		t.Fatalf("unrelated audio accepted %d/%d segments", accepted, len(ms))
	}
}
