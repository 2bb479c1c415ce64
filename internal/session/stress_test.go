package session

import (
	"math"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/serverpipe"
)

// TestSessionWithHeavyClockDrift verifies the paper's core claim — no
// clock synchronization required — under an aggressive ±200 ppm controller
// clock drift (4x a bad consumer crystal). Ekho's measurements and
// corrections must still hold the streams inside the ±10 ms echo threshold.
func TestSessionWithHeavyClockDrift(t *testing.T) {
	for _, drift := range []float64{-200, 200} {
		sc := shortScenario()
		sc.ControllerDriftPPM = drift
		res := Run(sc)
		var tail []float64
		for _, p := range res.Trace {
			if p.TimeSec > 30 {
				tail = append(tail, math.Abs(p.ISDSeconds))
			}
		}
		if len(tail) == 0 {
			t.Fatalf("drift %g: no tail trace", drift)
		}
		in := 0
		for _, v := range tail {
			if v <= 0.012 {
				in++
			}
		}
		if frac := float64(in) / float64(len(tail)); frac < 0.75 {
			t.Fatalf("drift %g ppm: in-sync fraction %.2f", drift, frac)
		}
	}
}

// TestSessionWithLossyUplink injects heavy chat-uplink loss; the estimator
// conceals the gaps and the loop still converges.
func TestSessionWithLossyUplink(t *testing.T) {
	sc := shortScenario()
	sc.ControllerUplink.LossProb = 0.02 // 2% chat loss
	sc.ControllerUplink.BurstFactor = 3
	res := Run(sc)
	if len(res.Measurements) == 0 {
		t.Fatal("no measurements despite uplink loss")
	}
	var tail []float64
	for _, p := range res.Trace {
		if p.TimeSec > 30 {
			tail = append(tail, math.Abs(p.ISDSeconds))
		}
	}
	in := 0
	for _, v := range tail {
		if v <= 0.010 {
			in++
		}
	}
	if frac := float64(in) / float64(len(tail)); frac < 0.6 {
		t.Fatalf("in-sync fraction %.2f with lossy uplink", frac)
	}
}

// TestSessionBothLinksCongested drives both downlinks through a congested
// public AP; Ekho should still spend most of the time in sync, just with
// more resync episodes.
func TestSessionBothLinksCongested(t *testing.T) {
	sc := shortScenario()
	sc.DurationSec = 50
	sc.ScreenLink.JitterStd = 0.012
	sc.ControllerLink.JitterStd = 0.010
	sc.ScreenLink.LossProb = 0.001
	sc.ControllerLink.LossProb = 0.001
	res := Run(sc)
	if res.InSyncFraction < 0.4 {
		t.Fatalf("in-sync fraction %.2f under congestion", res.InSyncFraction)
	}
	if len(res.Actions) == 0 {
		t.Fatal("congestion should require corrections")
	}
}

// TestSessionExtremeStartupGap pushes the startup ISD close to the ±500 ms
// matching bound; the estimator must still resolve it unambiguously.
func TestSessionExtremeStartupGap(t *testing.T) {
	sc := shortScenario()
	sc.ScreenLink.BaseDelay = 0.260
	sc.ScreenJitterFrames = 8
	sc.ScreenDeviceLatency = 0.110
	res := Run(sc)
	if len(res.Actions) == 0 {
		t.Fatal("no corrective action for extreme gap")
	}
	first := res.Actions[0]
	total := first.Action.InsertFrames * 20
	if total < 350 || total > 520 {
		t.Fatalf("first correction %d ms for a ~450 ms gap", total)
	}
	var tail []float64
	for _, p := range res.Trace {
		if p.TimeSec > 30 {
			tail = append(tail, math.Abs(p.ISDSeconds))
		}
	}
	in := 0
	for _, v := range tail {
		if v <= 0.010 {
			in++
		}
	}
	if frac := float64(in) / float64(len(tail)); frac < 0.8 {
		t.Fatalf("in-sync fraction %.2f after extreme startup", frac)
	}
}

// TestSessionInterpolatedInsertion runs the §4.4 future-work mode: gaps
// synthesized from surrounding audio instead of silence. Synchronization
// must be unaffected, and the transmitted audio around insertions must
// carry energy (no hard mute) with smaller discontinuities.
func TestSessionInterpolatedInsertion(t *testing.T) {
	sc := shortScenario()
	sc.InterpolatedInsert = true
	res := Run(sc)
	if len(res.Actions) == 0 {
		t.Fatal("no actions")
	}
	var tail []float64
	for _, p := range res.Trace {
		if p.TimeSec > 30 {
			tail = append(tail, math.Abs(p.ISDSeconds))
		}
	}
	in := 0
	for _, v := range tail {
		if v <= 0.010 {
			in++
		}
	}
	if frac := float64(in) / float64(len(tail)); frac < 0.8 {
		t.Fatalf("interpolated mode in-sync fraction %.2f", frac)
	}
}

// TestInterpolatedGapCarriesEnergy checks the scheduler-level behaviour
// directly: inserted gaps continue the waveform instead of muting.
func TestInterpolatedGapCarriesEnergy(t *testing.T) {
	game := audio.Tone(audio.SampleRate, 240, 2.0, 0.5)
	plain := serverpipe.NewStream(game)
	interp := serverpipe.NewStream(game)
	interp.EnableInterpolation()
	pf := make([]float64, audio.FrameSamples)
	inf := make([]float64, audio.FrameSamples)
	// Warm both up, then insert one frame of delay.
	for i := 0; i < 10; i++ {
		plain.Next(pf)
		interp.Next(inf)
	}
	plain.Apply(compensator.Action{InsertFrames: 1})
	interp.Apply(compensator.Action{InsertFrames: 1})
	pi := plain.Next(pf)
	ii := interp.Next(inf)
	if pi.ContentStart != -1 || ii.ContentStart != -1 {
		t.Fatalf("expected gap frames, got contents %d %d", pi.ContentStart, ii.ContentStart)
	}
	if rmsOf(pf) != 0 {
		t.Fatal("plain gap should be silence")
	}
	if rmsOf(inf) < 0.1 {
		t.Fatalf("interpolated gap RMS %g should carry energy", rmsOf(inf))
	}
}

func rmsOf(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// TestSessionPlayerWalksAcrossRoom ramps the player from 2 ft to 19 ft
// from the TV (the paper's full controller range): the propagation delay
// drifts by 17 ms over the session and Ekho must keep re-centering.
func TestSessionPlayerWalksAcrossRoom(t *testing.T) {
	sc := shortScenario()
	sc.DurationSec = 60
	sc.Channel.DistanceFt = 2
	sc.WalkToFt = 19
	res := Run(sc)
	if len(res.Actions) < 2 {
		t.Fatalf("walking player should force repeated corrections, got %d", len(res.Actions))
	}
	// The drift is 17 ms / 60 s ≈ 0.3 ms/s; between corrections the ISD
	// can wander, but it must stay within ~1.5 frames at all times after
	// convergence.
	for _, p := range res.Trace {
		if p.TimeSec > 20 && math.Abs(p.ISDSeconds) > 0.030 {
			t.Fatalf("ISD %g ms at %gs while walking", p.ISDSeconds*1000, p.TimeSec)
		}
	}
	var tail []float64
	for _, p := range res.Trace {
		if p.TimeSec > 20 {
			tail = append(tail, math.Abs(p.ISDSeconds))
		}
	}
	in := 0
	for _, v := range tail {
		if v <= 0.012 {
			in++
		}
	}
	if frac := float64(in) / float64(len(tail)); frac < 0.7 {
		t.Fatalf("in-sync fraction %.2f while walking", frac)
	}
}

// TestSessionCongestionBurst throttles the screen downlink below the
// stream's rate for a few seconds: queueing delay builds, the screen's
// jitter buffer strains, and once the burst clears Ekho re-centers.
func TestSessionCongestionBurst(t *testing.T) {
	sc := shortScenario()
	sc.DurationSec = 70
	// 50 pkt/s × 600 B = 240 kbps offered; cap at 220 kbps for 3 s —
	// a ~270 ms backlog, inside Ekho's ±500 ms measurable envelope
	// (markers 1 s apart can only disambiguate |ISD| < 500 ms, §4.3).
	sc.ScriptedThrottles = []ScriptedThrottle{
		{AtSec: 35, DurationSec: 3, Stream: Screen, BandwidthBps: 220_000},
	}
	res := Run(sc)
	// During/after the burst the ISD must have been disturbed...
	disturbed := false
	for _, p := range res.Trace {
		if p.TimeSec > 35 && p.TimeSec < 48 && math.Abs(p.ISDSeconds) > 0.015 {
			disturbed = true
			break
		}
	}
	if !disturbed {
		t.Log("note: burst absorbed by the jitter buffer (no ISD excursion)")
	}
	// ...and the tail must be back in sync.
	var tail []float64
	for _, p := range res.Trace {
		if p.TimeSec > 58 {
			tail = append(tail, math.Abs(p.ISDSeconds))
		}
	}
	in := 0
	for _, v := range tail {
		if v <= 0.012 {
			in++
		}
	}
	if frac := float64(in) / float64(len(tail)); frac < 0.8 {
		t.Fatalf("post-congestion in-sync fraction %.2f", frac)
	}
}
