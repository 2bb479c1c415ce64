package session

import (
	"math"
	"testing"

	"ekho/internal/compensator"
)

// shortScenario is a fast configuration for unit tests.
func shortScenario() Scenario {
	sc := DefaultScenario()
	sc.DurationSec = 40
	return sc
}

func TestSessionConvergesWithEkho(t *testing.T) {
	res := Run(shortScenario())
	if len(res.Trace) == 0 {
		t.Fatal("no ISD trace")
	}
	if len(res.Measurements) == 0 {
		t.Fatal("no Ekho measurements")
	}
	if len(res.Actions) == 0 {
		t.Fatal("no compensation actions — streams start hundreds of ms apart")
	}
	// After convergence (last 10 s) the ISD should be inside the
	// ±10 ms echo threshold most of the time.
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
	frac := float64(inSync) / float64(len(tail))
	if frac < 0.8 {
		t.Fatalf("tail in-sync fraction %.2f, want >= 0.8", frac)
	}
}

func TestSessionWithoutEkhoStaysOutOfSync(t *testing.T) {
	sc := shortScenario()
	sc.EkhoEnabled = false
	res := Run(sc)
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
	if len(res.Measurements) != 0 || len(res.Actions) != 0 {
		t.Fatal("Ekho OFF must not measure or act")
	}
	// The latency gap (cellular + TV latency vs WiFi) keeps ISD far from
	// zero the whole session (paper: never below 50 ms).
	for _, p := range res.Trace {
		if p.TimeSec > 5 && math.Abs(p.ISDSeconds) < 0.050 {
			t.Fatalf("ISD %g at %gs without Ekho — should never approach sync", p.ISDSeconds, p.TimeSec)
		}
	}
	if res.InSyncFraction != 0 {
		t.Fatalf("in-sync fraction %g without Ekho", res.InSyncFraction)
	}
}

func TestSessionMeasurementsMatchGroundTruth(t *testing.T) {
	// Every Ekho measurement taken outside compensation transients must
	// agree to a few ms with the ground-truth trace at the moment its
	// marker was heard. A measurement reaches the server a detection
	// latency after that (the Eq. 7 companion one interval on, the coarse
	// block, the uplink: 1.1-2.5 s), so the ISD it reports can be that old
	// but never wrong; comparing with the trace at that moment needs no
	// allowance for staleness before an action.
	res := Run(shortScenario())
	// Build a lookup of ground truth by time.
	gt := func(at float64) (float64, bool) {
		best, bestDt := 0.0, math.Inf(1)
		for _, p := range res.Trace {
			if dt := math.Abs(p.TimeSec - at); dt < bestDt {
				bestDt, best = dt, p.ISDSeconds
			}
		}
		return best, bestDt < 0.5
	}
	checked := 0
	for _, m := range res.Measurements {
		// Skip measurements made within 8 s after any action (transients).
		inTransient := false
		for _, a := range res.Actions {
			if m.TimeSec >= a.TimeSec && m.TimeSec <= a.TimeSec+8 {
				inTransient = true
				break
			}
		}
		if inTransient {
			continue
		}
		want, ok := gt(m.HeardSec)
		if !ok {
			continue
		}
		checked++
		if math.Abs(m.ISDSeconds-want) > 0.005 {
			t.Fatalf("measurement %g at %gs (marker heard at %gs) disagrees with ground truth %g",
				m.ISDSeconds, m.TimeSec, m.HeardSec, want)
		}
	}
	if checked == 0 {
		t.Fatal("no steady-state measurements checked")
	}
}

func TestScriptedLossCausesResync(t *testing.T) {
	sc := shortScenario()
	sc.DurationSec = 60
	// Clean links so only the scripted loss perturbs the session. A
	// deeper controller buffer guarantees frames are queued at the loss
	// tick, so playback jumps ahead (an empty buffer would rebuffer and
	// self-heal instead — both behaviours exist in the wild).
	sc.ScreenLink.LossProb = 0
	sc.ControllerLink.LossProb = 0
	sc.ControllerUplink.LossProb = 0
	sc.ControllerJitterFrames = 3
	sc.ScriptedLosses = []ScriptedLoss{{AtSec: 35, Stream: Accessory, Frames: 1}}
	res := Run(sc)
	// Find the ISD right before the loss and shortly after.
	mean := func(lo, hi float64) float64 {
		var s float64
		n := 0
		for _, p := range res.Trace {
			if p.TimeSec >= lo && p.TimeSec <= hi {
				s += p.ISDSeconds
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return s / float64(n)
	}
	// The post-loss window closes before the (fast) incremental estimator
	// can drive a correction.
	before := mean(30, 34.5)
	after := mean(35.3, 36.2)
	if math.IsNaN(before) || math.IsNaN(after) {
		t.Fatal("missing trace segments")
	}
	// Losing one accessory frame advances the accessory playback by
	// 20 ms → ISD jumps up by ~20 ms.
	jump := after - before
	if jump < 0.012 || jump > 0.028 {
		t.Fatalf("loss jump %g want ~0.020", jump)
	}
	// And Ekho must bring it back under 10 ms within ~10 s.
	end := mean(50, 60)
	if math.Abs(end) > 0.010 {
		t.Fatalf("post-loss resync failed: ISD %g at end", end)
	}
}

func TestInitialCorrectionMagnitude(t *testing.T) {
	// The startup gap (cellular + jitter buffer + TV latency vs WiFi)
	// must be corrected by inserting frames into the accessory stream.
	res := Run(shortScenario())
	if len(res.Actions) == 0 {
		t.Fatal("no actions")
	}
	first := res.Actions[0]
	if first.Action.Stream != compensator.AccessoryStream {
		t.Fatalf("first action on %v, want accessory (screen lags)", first.Action.Stream)
	}
	if first.Action.InsertFrames < 5 {
		t.Fatalf("first correction only %d frames — startup gap should be large", first.Action.InsertFrames)
	}
	// The correction should happen within the estimator warm-up (2-8 s).
	if first.TimeSec > 10 {
		t.Fatalf("first correction at %gs, too slow", first.TimeSec)
	}
}

// Sub-frame corrections land well inside the ±10 ms that whole frames
// would leave.
func TestSubFrameModeTightensSync(t *testing.T) {
	var s float64
	n := 0
	for _, p := range Run(shortScenario()).Trace {
		if p.TimeSec > 25 {
			s += math.Abs(p.ISDSeconds)
			n++
		}
	}
	if fe := s / float64(n); fe > 0.005 {
		t.Fatalf("steady error %g want < 5 ms", fe)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	sc := shortScenario()
	sc.DurationSec = 20
	a := Run(sc)
	b := Run(sc)
	if len(a.Trace) != len(b.Trace) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatal("nondeterministic trace")
		}
	}
}
