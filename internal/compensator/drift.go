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

// DriftConfig tunes the micro-resampling regime. The zero value of
// Enabled keeps the compensator byte-identical to the level-only loop.
type DriftConfig struct {
	// Enabled turns the drift regime on. Off by default: every zero-drift
	// code path must be bit-identical to the pre-drift behavior.
	Enabled bool
	// EngagePPM is the fitted-slope magnitude (ppm) above which
	// micro-resampling engages (default 30).
	EngagePPM float64
	// ReleasePPM is the residual-slope magnitude (ppm) below which the
	// loop stops retuning and holds its current rate (default 10).
	// Between Release and Engage an already-engaged loop keeps adjusting
	// — that asymmetry is the regime hysteresis.
	ReleasePPM float64
	// MaxPPM clamps the commanded rate (default 400). Real device SROs
	// are tens of ppm; a fit demanding more than this is distrusted.
	MaxPPM float64
	// MaxStepPPM clamps how far one retune may move an already-engaged
	// rate (default 2·EngagePPM). The first engagement jumps straight to
	// the fitted slope, but once the loop has converged the true offset
	// only wanders slowly — a fit demanding a large swing is almost
	// always a transient (a network excursion read as slope), and the
	// clamp bounds the damage to one settle period of small error
	// instead of a rate flip.
	MaxStepPPM float64
	// SettleSec is the minimum time between rate updates (default 8 s):
	// after a retune the tracker needs a fresh window before its slope
	// means anything.
	SettleSec float64
	// TStat is the significance gate: the fitted slope must exceed
	// TStat · SlopeStdErr to act (default 2.5), so measurement noise on
	// a drift-free stream cannot engage the regime.
	TStat float64
	// BlankSec is how long after an applied correction the drift tracker
	// ignores incoming measurements (default 2.5 s), measured on the
	// tracker's own x-axis (marker detection time). A correction changes
	// the ISD trajectory only after it propagates through jitter buffers
	// and playout; measurements detected before that still show the old
	// trajectory, and letting them seed the freshly reset window makes
	// the next fit see a step or kink that is not drift. Blanking on
	// detection time rather than arrival time also excludes measurements
	// that were detected pre-correction but delivered late (uplink and
	// correlation latency run to seconds).
	BlankSec float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.EngagePPM == 0 {
		c.EngagePPM = 30
	}
	if c.ReleasePPM == 0 {
		c.ReleasePPM = 10
	}
	if c.MaxPPM == 0 {
		c.MaxPPM = 400
	}
	if c.MaxStepPPM == 0 {
		c.MaxStepPPM = 2 * c.EngagePPM
	}
	if c.SettleSec == 0 {
		c.SettleSec = 8
	}
	if c.TStat == 0 {
		c.TStat = 2.5
	}
	if c.BlankSec == 0 {
		c.BlankSec = 2.5
	}
	return c
}

// DriftLoop layers the micro-resampling regime over the discrete level
// compensator. At most one of the two returned actions is non-nil per
// offer: a rate retune consumes the measurement that triggered it.
type DriftLoop struct {
	cfg   DriftConfig
	level *Compensator
	// appliedPPM is the rate currently commanded on the accessory stream.
	appliedPPM float64
	engaged    bool
	// rateSettleUntil blocks retunes until the tracker has re-observed.
	rateSettleUntil float64
}

// NewDriftLoop wraps the discrete compensator. With cfg.Enabled false the
// loop is a pure passthrough to level.Offer.
func NewDriftLoop(cfg DriftConfig, level *Compensator) *DriftLoop {
	return &DriftLoop{cfg: cfg.withDefaults(), level: level, rateSettleUntil: math.Inf(-1)}
}

// Offer presents one ISD measurement at local time now together with the
// drift tracker's current fit. It returns either a discrete action, a
// resample retune, or neither. The caller must reset its drift tracker
// after applying either kind of correction — both move the ISD trajectory
// out from under the fitted window.
func (l *DriftLoop) Offer(now, isdSeconds float64, fit estimator.DriftFit) (*Action, *Resample) {
	if !l.cfg.Enabled {
		return l.level.Offer(now, isdSeconds), nil
	}
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
	threshold := l.cfg.EngagePPM
	if l.engaged {
		threshold = l.cfg.ReleasePPM
	}
	if math.Abs(slopePPM) <= threshold {
		return nil
	}
	if math.Abs(fit.SlopeSecPerSec) <= l.cfg.TStat*fit.SlopeStdErr {
		return nil
	}
	if math.Abs(slopePPM) > l.cfg.MaxPPM {
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
	if l.engaged && math.Abs(delta) > l.cfg.MaxStepPPM {
		if delta > 0 {
			delta = l.cfg.MaxStepPPM
		} else {
			delta = -l.cfg.MaxStepPPM
		}
	}
	next := l.appliedPPM + delta
	if next > l.cfg.MaxPPM {
		next = l.cfg.MaxPPM
	} else if next < -l.cfg.MaxPPM {
		next = -l.cfg.MaxPPM
	}
	l.appliedPPM = next
	l.engaged = true
	l.rateSettleUntil = now + l.cfg.SettleSec
	return &Resample{Stream: AccessoryStream, PPM: next}
}

// BlankSec returns the resolved post-correction tracker blanking period.
func (l *DriftLoop) BlankSec() float64 { return l.cfg.BlankSec }
