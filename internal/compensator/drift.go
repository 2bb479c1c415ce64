package compensator

import (
	"math"

	"ekho/internal/estimator"
)

// Micro-resampling regime.
//
// Discrete silence/skip corrections assume ISD is a level: fix it once
// and it stays fixed. Under a sample-rate offset the ISD is a ramp, and a
// level loop can only chase it with a sawtooth (the ramp must clear the
// 5 ms hysteresis, and each step waits out the settling window). The
// drift regime cancels the ramp at its source: a continuous
// micro-resampling action retunes the accessory stream's content rate by
// the fitted drift in ppm, leaving only a level for the discrete loop to
// correct. Hysteresis keeps the two regimes from
// fighting: micro-resampling engages only when the fitted slope is both
// large and statistically significant, and releases (holding its last
// rate) once the residual slope is small.

// Resample is the continuous compensation action: retune the content
// consumption rate of one stream by PPM parts per million. Positive PPM
// consumes content faster (a continuous skip, advancing the stream);
// negative PPM stretches it (a continuous insert). The rate replaces any
// previously commanded rate on that stream — it is absolute, not a delta.
type Resample struct {
	Stream Stream
	PPM    float64
}

// Micro-resampling regime constants.
const (
	// engagePPM is the fitted-slope magnitude (ppm) above which
	// micro-resampling engages.
	engagePPM = 30
	// releasePPM is the residual-slope magnitude (ppm) below which the
	// loop stops retuning and holds its current rate. Between release and
	// engage an already-engaged loop keeps adjusting — that asymmetry is
	// the regime hysteresis.
	releasePPM = 10
	// maxPPM clamps the commanded rate. Real device SROs are tens of ppm;
	// a fit demanding more than this is distrusted.
	maxPPM = 400
	// maxStepPPM clamps how far one retune may move an already-engaged
	// rate. The first engagement jumps straight to the fitted slope, but
	// once the loop has converged the true offset only wanders slowly — a
	// fit demanding a large swing is almost always a transient (a network
	// excursion read as slope), and the clamp bounds the damage to one
	// settle period of small error instead of a rate flip.
	maxStepPPM = 2 * engagePPM
	// rateSettleSec is the minimum time between rate updates: after a
	// retune the tracker needs a fresh window before its slope means
	// anything.
	rateSettleSec = 8
	// tStat is the significance gate: the fitted slope must exceed
	// tStat · SlopeStdErr to act, so measurement noise on a drift-free
	// stream cannot engage the regime.
	tStat = 2.5
)

// DriftLoop layers the micro-resampling regime over the discrete level
// compensator. At most one of the two returned actions is non-nil per
// offer: a rate retune consumes the measurement that triggered it.
type DriftLoop struct {
	level *Compensator
	// appliedPPM is the rate currently commanded on the accessory stream.
	appliedPPM float64
	engaged    bool
	// rateSettleUntil blocks retunes until the tracker has re-observed.
	rateSettleUntil float64
}

// NewDriftLoop wraps the discrete compensator.
func NewDriftLoop(level *Compensator) *DriftLoop {
	return &DriftLoop{level: level, rateSettleUntil: math.Inf(-1)}
}

// Offer presents one ISD measurement at local time now together with the
// drift tracker's current fit. It returns either a discrete action, a
// resample retune, or neither. The caller must reset its drift tracker
// after applying either kind of correction — both move the ISD trajectory
// out from under the fitted window.
func (l *DriftLoop) Offer(now, isdSeconds float64, fit estimator.DriftFit) (*Action, *Resample) {
	if rs := l.maybeRetune(now, fit); rs != nil {
		return nil, rs
	}
	// No retune this epoch: correct the level. The fitted level is less
	// noisy than the raw measurement once the window is valid.
	level := isdSeconds
	if fit.Valid {
		level = fit.LevelSeconds
	}
	return l.level.Offer(now, level), nil
}

// maybeRetune decides whether the fitted slope warrants a rate change.
func (l *DriftLoop) maybeRetune(now float64, fit estimator.DriftFit) *Resample {
	if !fit.Valid || now < l.rateSettleUntil {
		return nil
	}
	slopePPM := fit.SlopeSecPerSec * 1e6
	threshold := float64(engagePPM)
	if l.engaged {
		threshold = releasePPM
	}
	if math.Abs(slopePPM) <= threshold {
		return nil
	}
	if math.Abs(fit.SlopeSecPerSec) <= tStat*fit.SlopeStdErr {
		return nil
	}
	if math.Abs(slopePPM) > maxPPM {
		// Real oscillator offsets are tens of ppm; a fit steeper than the
		// rate clamp itself is a polluted window (a discrete-correction
		// step that leaked past the blanking), not drift. Acting on it
		// would slam the rate to the clamp.
		return nil
	}
	// The observed slope is the residual with the current rate applied:
	// accessory content-time rate ≈ 1 + sro + applied·1e-6, so the rate
	// that zeroes the ramp is applied − slope.
	delta := -slopePPM
	if l.engaged && math.Abs(delta) > maxStepPPM {
		if delta > 0 {
			delta = maxStepPPM
		} else {
			delta = -maxStepPPM
		}
	}
	next := l.appliedPPM + delta
	if next > maxPPM {
		next = maxPPM
	} else if next < -maxPPM {
		next = -maxPPM
	}
	l.appliedPPM = next
	l.engaged = true
	l.rateSettleUntil = now + rateSettleSec
	return &Resample{Stream: AccessoryStream, PPM: next}
}
