package compensator

import (
	"math"
	"math/rand"
	"testing"

	"ekho/internal/estimator"
)

// driftSim closes the loop analytically: a device with a true SRO
// produces ISD measurements whose slope is sro + appliedPPM·1e-6, and the
// DriftLoop retunes until the residual slope vanishes.
type driftSim struct {
	sroPPM  float64
	isd     float64 // current ISD, seconds
	applied float64 // commanded rate, ppm
	noise   float64
	rng     *rand.Rand
}

func (s *driftSim) step(dt float64) float64 {
	s.isd += (s.sroPPM + s.applied) * 1e-6 * dt
	v := s.isd
	if s.noise > 0 {
		v += s.noise * s.rng.NormFloat64()
	}
	return v
}

// runLoop drives tracker + loop for d seconds at the marker cadence and
// returns the last commanded rate plus counters.
func runLoop(t *testing.T, loop *DriftLoop, sim *driftSim, seconds float64) (actions, resamples int) {
	t.Helper()
	var tr estimator.DriftTracker
	const dt = 1.5
	for now := 0.0; now < seconds; now += dt {
		isd := sim.step(dt)
		tr.Add(now, isd)
		act, rs := loop.Offer(now, isd, tr.Fit())
		if act != nil && rs != nil {
			t.Fatal("both discrete and resample action in one offer")
		}
		if rs != nil {
			if rs.Stream != AccessoryStream {
				t.Fatalf("resample on %v, want accessory", rs.Stream)
			}
			sim.applied = rs.PPM
			tr.Reset()
			resamples++
		}
		if act != nil {
			// Apply the discrete correction to the simulated ISD.
			if act.Stream == AccessoryStream {
				sim.isd -= act.TotalDelaySeconds()
			} else {
				sim.isd += act.TotalDelaySeconds()
			}
			tr.Reset()
			actions++
		}
	}
	return actions, resamples
}

// The loop must converge on the cancelling rate for a true SRO and hold
// the residual slope inside the release band.
func TestDriftLoopConvergesOnSRO(t *testing.T) {
	for _, sro := range []float64{100, -100, 200, -50} {
		loop := NewDriftLoop(New(Config{}))
		sim := &driftSim{sroPPM: sro}
		_, resamples := runLoop(t, loop, sim, 120)
		if resamples == 0 {
			t.Fatalf("sro=%v: never engaged", sro)
		}
		residual := sro + loop.appliedPPM
		if math.Abs(residual) > releasePPM {
			t.Errorf("sro=%v ppm: applied %.1f ppm leaves residual %.1f ppm (> release band %v)",
				sro, loop.appliedPPM, residual, releasePPM)
		}
		if !loop.engaged {
			t.Errorf("sro=%v: loop not engaged after convergence", sro)
		}
	}
}

// Zero drift with realistic measurement noise must never engage the
// resampling regime (the t-statistic gate).
func TestDriftLoopNoFalseEngage(t *testing.T) {
	loop := NewDriftLoop(New(Config{}))
	sim := &driftSim{sroPPM: 0, noise: 0.0004, rng: rand.New(rand.NewSource(11))}
	_, resamples := runLoop(t, loop, sim, 300)
	if resamples != 0 {
		t.Fatalf("engaged %d times on a drift-free noisy stream", resamples)
	}
	if loop.appliedPPM != 0 || loop.engaged {
		t.Fatal("rate commanded without drift")
	}
}

// Until the tracker's window is valid the drift regime is dormant: the
// loop must defer to the level compensator with the RAW measurement —
// identical offers must yield identical actions. (A session with drift
// off builds no loop at all; see serverpipe.)
func TestDriftLoopDisabledPassthrough(t *testing.T) {
	direct := New(Config{})
	wrapped := NewDriftLoop(New(Config{}))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		now := float64(i) * 1.5
		isd := 0.012*math.Sin(float64(i)/9) + 0.002*rng.NormFloat64()
		want := direct.Offer(now, isd)
		got, rs := wrapped.Offer(now, isd, estimator.DriftFit{LevelSeconds: isd, Points: 1})
		if rs != nil {
			t.Fatal("resample issued without a valid fit")
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("offer %d: passthrough diverged (want %v, got %v)", i, want, got)
		}
		if want != nil && *want != *got {
			t.Fatalf("offer %d: action diverged: want %+v got %+v", i, *want, *got)
		}
	}
}

// Hysteresis: a slope between the release and engage thresholds retunes
// only an already-engaged loop.
func TestDriftLoopHysteresis(t *testing.T) {
	mk := func() estimator.DriftFit {
		return estimator.DriftFit{
			Valid:          true,
			SlopeSecPerSec: 20e-6, // between release (10) and engage (30)
			SlopeStdErr:    1e-6,
			LevelSeconds:   0,
			Points:         16,
			SpanSec:        20,
		}
	}
	fresh := NewDriftLoop(New(Config{}))
	if _, rs := fresh.Offer(0, 0, mk()); rs != nil {
		t.Fatal("mid-band slope engaged a fresh loop")
	}
	engaged := NewDriftLoop(New(Config{}))
	big := mk()
	big.SlopeSecPerSec = 100e-6
	if _, rs := engaged.Offer(0, 0, big); rs == nil {
		t.Fatal("large significant slope did not engage")
	}
	// Past the settle window, the mid-band slope now retunes.
	if _, rs := engaged.Offer(100, 0, mk()); rs == nil {
		t.Fatal("mid-band slope did not retune an engaged loop")
	}
	// Below the release band it holds the rate.
	small := mk()
	small.SlopeSecPerSec = 5e-6
	before := engaged.appliedPPM
	if _, rs := engaged.Offer(200, 0, small); rs != nil {
		t.Fatal("slope inside release band still retuned")
	}
	if engaged.appliedPPM != before {
		t.Fatal("released loop changed its rate")
	}
}

// The commanded rate must clamp at maxPPM even when the fits keep
// demanding more, and engaged retunes may move at most maxStepPPM per
// settle window.
func TestDriftLoopClampsRate(t *testing.T) {
	loop := NewDriftLoop(New(Config{}))
	fit := func(ppm float64) estimator.DriftFit {
		return estimator.DriftFit{
			Valid: true, SlopeSecPerSec: ppm * 1e-6, SlopeStdErr: 1e-6,
			Points: 16, SpanSec: 20,
		}
	}
	// First engagement jumps straight to the estimate (just inside the
	// sanity gate).
	_, rs := loop.Offer(0, 0, fit(maxPPM-10))
	if rs == nil {
		t.Fatal("no engagement retune")
	}
	if got := rs.PPM; got != -(maxPPM - 10) {
		t.Fatalf("engagement rate %v, want %v", got, -(maxPPM - 10))
	}
	// Once engaged, a retune moves at most maxStepPPM...
	_, rs = loop.Offer(100, 0, fit(maxPPM-10))
	if rs == nil {
		t.Fatal("no engaged retune")
	}
	if want := float64(-(maxPPM - 10) - maxStepPPM); math.Abs(rs.PPM-want) > 1e-9 && rs.PPM != -maxPPM {
		t.Fatalf("engaged retune %v, want step-clamped %v or rate-clamped %v", rs.PPM, want, -maxPPM)
	}
	// ...and the commanded rate never exceeds ±maxPPM no matter how many
	// rounds demand more.
	for i := 0; i < 10; i++ {
		loop.Offer(200+float64(i)*100, 0, fit(maxPPM-10))
	}
	if math.Abs(loop.appliedPPM) != maxPPM {
		t.Fatalf("rate %v not clamped to ±%v", loop.appliedPPM, maxPPM)
	}
}

// A fit steeper than maxPPM is a polluted window (a correction step read
// as slope), not a plausible oscillator: the loop must ignore it.
func TestDriftLoopRejectsImplausibleSlope(t *testing.T) {
	loop := NewDriftLoop(New(Config{}))
	junk := estimator.DriftFit{
		Valid: true, SlopeSecPerSec: 5000e-6, SlopeStdErr: 1e-6,
		Points: 16, SpanSec: 20,
	}
	if _, rs := loop.Offer(0, 0, junk); rs != nil {
		t.Fatalf("implausible %.0f ppm slope engaged the loop (%+.1f ppm)", 5000.0, rs.PPM)
	}
}
