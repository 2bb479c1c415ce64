package session

import (
	"math"
	"testing"

	"ekho/internal/compensator"
)

// tailStats summarizes |ISD| over the ground-truth trace points at or
// after fromSec.
func tailStats(res *Result, fromSec float64) (mean, max float64) {
	n := 0
	for _, p := range res.Trace {
		if p.TimeSec < fromSec {
			continue
		}
		a := math.Abs(p.ISDSeconds)
		if a > max {
			max = a
		}
		mean += a
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, max
}

// TestDriftCompensationHoldsSync is the tentpole acceptance gate: with a
// +100 ppm controller sample-rate offset, the drift regime must converge
// on a cancelling rate near −100 ppm and hold steady-state |ISD| below
// the 10 ms in-sync bound — no sawtooth.
func TestDriftCompensationHoldsSync(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute virtual session")
	}
	sc := DriftScenario(100)
	sc.DurationSec = 120
	res := Run(sc)
	if len(res.Resamples) == 0 {
		t.Fatal("drift regime never engaged: no resample retunes")
	}
	last := res.Resamples[len(res.Resamples)-1].Resample
	if last.Stream != compensator.AccessoryStream {
		t.Fatalf("resampling wrong stream: %v", last.Stream)
	}
	// The cancelling rate for +100 ppm SRO is ≈ −100 ppm.
	if last.PPM > -40 || last.PPM < -160 {
		t.Fatalf("converged rate %+.1f ppm; want near -100", last.PPM)
	}
	mean, max := tailStats(res, sc.DurationSec-30)
	if max >= 0.010 {
		t.Fatalf("steady-state |ISD| max %.2f ms (mean %.2f ms); want < 10 ms", max*1000, mean*1000)
	}
}

// TestDriftCompensationNegativeSRO mirrors the gate for a slow oscillator:
// −100 ppm SRO must converge on ≈ +100 ppm (continuous skip).
func TestDriftCompensationNegativeSRO(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute virtual session")
	}
	sc := DriftScenario(-100)
	sc.DurationSec = 120
	res := Run(sc)
	if len(res.Resamples) == 0 {
		t.Fatal("drift regime never engaged: no resample retunes")
	}
	last := res.Resamples[len(res.Resamples)-1].Resample
	if last.PPM < 40 || last.PPM > 160 {
		t.Fatalf("converged rate %+.1f ppm; want near +100", last.PPM)
	}
	_, max := tailStats(res, sc.DurationSec-30)
	if max >= 0.010 {
		t.Fatalf("steady-state |ISD| max %.2f ms; want < 10 ms", max*1000)
	}
}

// TestLevelOnlySawtoothUnderDrift documents what the drift regime fixes:
// the same +100 ppm SRO under the discrete level-only loop produces a
// sawtooth — the ramp must build to the correction threshold
// before each step, so |ISD| repeatedly exceeds the 10 ms bound and the
// compensator keeps issuing corrections forever.
func TestLevelOnlySawtoothUnderDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute virtual session")
	}
	sc := DriftScenario(100)
	sc.DriftCompensation = false
	sc.DurationSec = 120
	res := Run(sc)
	if len(res.Resamples) != 0 {
		t.Fatalf("level-only run issued %d resamples", len(res.Resamples))
	}
	if len(res.Actions) < 3 {
		t.Fatalf("expected repeated sawtooth corrections, got %d actions", len(res.Actions))
	}
	out, total := 0, 0
	for _, p := range res.Trace {
		if p.TimeSec < sc.WarmupIgnoreSec {
			continue
		}
		total++
		if math.Abs(p.ISDSeconds) > 0.010 {
			out++
		}
	}
	if total == 0 || float64(out)/float64(total) < 0.05 {
		t.Fatalf("expected sawtooth excursions beyond 10 ms; %d/%d points out of sync", out, total)
	}
}

// TestDriftBeatsLevelOnly compares the two regimes head to head on the
// same drifting scenario: enabling drift compensation must not lower the
// in-sync fraction.
func TestDriftBeatsLevelOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute virtual session")
	}
	drift := DriftScenario(100)
	drift.DurationSec = 120
	level := drift
	level.DriftCompensation = false
	dres, lres := Run(drift), Run(level)
	if dres.InSyncFraction < lres.InSyncFraction {
		t.Fatalf("drift regime in-sync %.3f < level-only %.3f", dres.InSyncFraction, lres.InSyncFraction)
	}
}
