package perceptual

import (
	"math"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/gamesynth"
)

func TestEchoAnnoyanceShape(t *testing.T) {
	cats := []gamesynth.Category{gamesynth.Speech_, gamesynth.Music_, gamesynth.SFX_}
	for _, cat := range cats {
		ref := EchoAnnoyance(cat, 0)
		if ref < 4.5 {
			t.Fatalf("%v reference score %g", cat, ref)
		}
		// 10 ms already perceptible and slightly distracting (~3).
		at10 := EchoAnnoyance(cat, 10)
		if at10 > 3.6 || at10 < 2.4 {
			t.Fatalf("%v at 10 ms: %g want ~3", cat, at10)
		}
		// Monotone non-increasing in delay.
		prev := ref
		for _, d := range []float64{10, 20, 40, 60, 80, 160, 300} {
			cur := EchoAnnoyance(cat, d)
			if cur > prev+1e-9 {
				t.Fatalf("%v not monotone at %g ms: %g > %g", cat, d, cur, prev)
			}
			prev = cur
		}
	}
	// Speech keeps degrading; music/SFX plateau: compare the drop between
	// 40 and 300 ms.
	speechDrop := EchoAnnoyance(gamesynth.Speech_, 40) - EchoAnnoyance(gamesynth.Speech_, 300)
	musicDrop := EchoAnnoyance(gamesynth.Music_, 40) - EchoAnnoyance(gamesynth.Music_, 300)
	sfxDrop := EchoAnnoyance(gamesynth.SFX_, 40) - EchoAnnoyance(gamesynth.SFX_, 300)
	if float64(speechDrop) < 2*float64(musicDrop) || float64(speechDrop) < 2*float64(sfxDrop) {
		t.Fatalf("speech should degrade much more beyond 40 ms: %g vs %g/%g",
			speechDrop, musicDrop, sfxDrop)
	}
	if EchoAnnoyance(gamesynth.Speech_, 300) < 1 {
		t.Fatal("score below scale")
	}
}

func TestMarkerAudibilityShape(t *testing.T) {
	// C <= 1.0: indistinguishable from reference (within 0.4 DCR).
	ref := MarkerAudibility(0)
	for _, c := range []float64{0.1, 0.25, 0.5, 1.0} {
		s := MarkerAudibility(c)
		if float64(ref)-float64(s) > 0.4 {
			t.Fatalf("C=%g score %g too far below reference %g", c, s, ref)
		}
	}
	// C = 2.5: slightly distracting (~3).
	s25 := MarkerAudibility(2.5)
	if s25 > 3.6 || s25 < 2.4 {
		t.Fatalf("C=2.5 score %g want ~3", s25)
	}
	// C = 5: worse than C = 2.5.
	if MarkerAudibility(5) >= s25 {
		t.Fatal("C=5 should score below C=2.5")
	}
	// Monotone non-increasing in C.
	prev := ref
	for _, c := range []float64{0.1, 0.25, 0.5, 1.0, 2.5, 5.0} {
		cur := MarkerAudibility(c)
		if cur > prev+1e-9 {
			t.Fatalf("not monotone at C=%g", c)
		}
		prev = cur
	}
}

func TestDCRLabels(t *testing.T) {
	// Scale anchors: 5 = degradation inaudible .. 1 = very distracting.
	if DCR(5).Label() != "Inaudible" ||
		DCR(4).Label() != "Audible" ||
		DCR(3).Label() != "Slightly Distracting" ||
		DCR(2).Label() != "Distracting" ||
		DCR(1).Label() != "Very Distracting" {
		t.Fatal("labels")
	}
	if DCR(3.2).Label() != "Slightly Distracting" {
		t.Fatal("rounding label")
	}
}

func TestRaterPoolStatistics(t *testing.T) {
	p := NewRaterPool(1)
	ratings := p.Rate(3.0, 500)
	if len(ratings) != 500 {
		t.Fatal("count")
	}
	mean, ci := Score(ratings)
	if math.Abs(mean-3.0) > 0.15 {
		t.Fatalf("pool mean %g want ~3.0", mean)
	}
	if ci <= 0 || ci > 0.2 {
		t.Fatalf("ci %g", ci)
	}
	for _, r := range ratings {
		if r < 1 || r > 5 {
			t.Fatalf("rating %d out of scale", r)
		}
	}
	// Determinism.
	p2 := NewRaterPool(1)
	r2 := p2.Rate(3.0, 500)
	for i := range ratings {
		if ratings[i] != r2[i] {
			t.Fatal("pool not deterministic")
		}
	}
}

func TestScoreEmpty(t *testing.T) {
	m, ci := Score(nil)
	if !math.IsNaN(m) || !math.IsNaN(ci) {
		t.Fatal("empty score should be NaN")
	}
}

func TestMarkerBandLoudnessMonotone(t *testing.T) {
	quiet := audio.Tone(audio.SampleRate, 9000, 0.5, 0.001)
	loud := audio.Tone(audio.SampleRate, 9000, 0.5, 0.01)
	lq := MarkerBandLoudness(quiet)
	ll := MarkerBandLoudness(loud)
	if math.Abs((ll-lq)-20) > 1 {
		t.Fatalf("10x amplitude should be +20 dBA: %g", ll-lq)
	}
	// Out-of-band content contributes almost nothing.
	low := audio.Tone(audio.SampleRate, 500, 0.5, 0.5)
	if MarkerBandLoudness(low) > lq {
		t.Fatal("low-frequency content should not register in marker band")
	}
}

func TestAmbientAnchorsOrdering(t *testing.T) {
	if !(QuietLibraryDBA < AirConditionerDBA &&
		AirConditionerDBA < NormalConversationDBA) {
		t.Fatal("ambient anchor ordering")
	}
}
