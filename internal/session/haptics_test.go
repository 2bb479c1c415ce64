package session

import (
	"math"
	"testing"

	"ekho/internal/audio"
)

func TestHapticsSkewFollowsISD(t *testing.T) {
	sc := shortScenario()
	sc.HapticsEnabled = true
	res := Run(sc)
	if len(res.Haptics) == 0 {
		t.Fatal("no haptic events fired")
	}
	matched := 0
	var tail []float64
	for _, h := range res.Haptics {
		if !h.Matched {
			continue
		}
		matched++
		if h.PlayedAt > 30 {
			tail = append(tail, math.Abs(h.SkewToScreen))
		}
	}
	if matched < len(res.Haptics)/2 {
		t.Fatalf("only %d/%d haptic events matched to screen playback", matched, len(res.Haptics))
	}
	if len(tail) == 0 {
		t.Fatal("no post-convergence haptic events")
	}
	// After convergence the haptic-to-screen skew must sit well below the
	// 24-30 ms perception thresholds (§3.1) — it equals the audio ISD.
	inBound := 0
	for _, v := range tail {
		if v <= 0.015 {
			inBound++
		}
	}
	if frac := float64(inBound) / float64(len(tail)); frac < 0.8 {
		t.Fatalf("haptic skew above perception threshold too often: %.2f in-bound", frac)
	}
}

func TestHapticsWithoutEkhoSkewLarge(t *testing.T) {
	sc := shortScenario()
	sc.HapticsEnabled = true
	sc.EkhoEnabled = false
	res := Run(sc)
	if len(res.Haptics) == 0 {
		t.Fatal("no haptic events")
	}
	for _, h := range res.Haptics {
		if h.Matched && h.PlayedAt > 5 && math.Abs(h.SkewToScreen) < 0.050 {
			t.Fatalf("haptic skew %g without Ekho should stay large", h.SkewToScreen)
		}
	}
}

func TestHapticsGeneration(t *testing.T) {
	evs := generateHaptics(1, 20*48000)
	if len(evs) < 8 {
		t.Fatalf("only %d events in 20 s", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].ContentSample <= evs[i-1].ContentSample {
			t.Fatal("events must be content-ordered")
		}
	}
	for _, e := range evs {
		if e.Intensity < 0.3 || e.Intensity > 1 {
			t.Fatalf("intensity %g", e.Intensity)
		}
	}
	// Deterministic per seed.
	evs2 := generateHaptics(1, 20*48000)
	if len(evs) != len(evs2) || evs[3] != evs2[3] {
		t.Fatal("haptics not deterministic")
	}
}

func TestMutedScreenSessionConverges(t *testing.T) {
	sc := shortScenario()
	sc.MutedScreen = true
	res := Run(sc)
	if len(res.Measurements) == 0 {
		t.Fatal("muted-screen session produced no measurements")
	}
	if len(res.Actions) == 0 {
		t.Fatal("no compensation actions")
	}
	var tail []float64
	for _, p := range res.Trace {
		if p.TimeSec > 30 {
			tail = append(tail, math.Abs(p.ISDSeconds))
		}
	}
	if len(tail) == 0 {
		t.Fatal("no tail trace")
	}
	inSync := 0
	for _, v := range tail {
		if v <= 0.010 {
			inSync++
		}
	}
	if frac := float64(inSync) / float64(len(tail)); frac < 0.8 {
		t.Fatalf("muted-screen tail in-sync fraction %.2f", frac)
	}
}

func TestMutedScreenAudioIsSilentExceptMarkers(t *testing.T) {
	// The transmitted screen frames must carry only marker energy: build
	// a sim manually and inspect one produced frame.
	sc := shortScenario()
	sc.MutedScreen = true
	s := &sim{sc: sc}
	s.setup()
	// Produce 10 frames and check their peak levels are marker-scale.
	maxPeak := 0.0
	f := make([]float64, audio.FrameSamples)
	for i := 0; i < 10; i++ {
		s.pipe.NextScreenFrame(f)
		for _, v := range f {
			if a := math.Abs(v); a > maxPeak {
				maxPeak = a
			}
		}
	}
	if maxPeak == 0 {
		t.Fatal("markers missing from muted stream")
	}
	if maxPeak > 0.05 {
		t.Fatalf("muted stream peak %g too loud for a faint marker", maxPeak)
	}
}
