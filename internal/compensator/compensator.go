// Package compensator implements Ekho-Compensator (paper §4.4 and §5.1):
// the server-side feedback loop that consumes ISD measurements from
// Ekho-Estimator and re-aligns the screen and accessory streams by
// inserting silence frames into the leading stream or skipping frames of
// the lagging one.
//
// Stability rules from §5.1:
//   - a correction is only initiated when |ISD| exceeds a minimum
//     threshold (5 ms suggested), since small wander is normal;
//   - once a correction starts, several seconds pass before it reflects in
//     measurements, so new ISD measurements are ignored during a settling
//     window;
//   - corrections are quantized to whole samples, so a correction can
//     add a fraction of a 20 ms frame (§6.1: "a more involved
//     implementation could add or skip fractions of frames, and
//     synchronize below the 10 ms bound").
package compensator

import (
	"math"

	"ekho/internal/audio"
)

// Stream identifies which stream a compensation action applies to.
type Stream int

// The two downlink streams.
const (
	ScreenStream Stream = iota
	AccessoryStream
)

// String implements fmt.Stringer.
func (s Stream) String() string {
	if s == ScreenStream {
		return "screen"
	}
	return "accessory"
}

// Action is a compensation command for the stream schedulers.
type Action struct {
	// Stream is the stream to modify.
	Stream Stream
	// InsertFrames > 0 inserts that many silence frames (delaying the
	// stream); SkipFrames > 0 drops that many frames (advancing it).
	InsertFrames int
	SkipFrames   int
	// InsertSamples/SkipSamples carry the sub-frame remainder.
	InsertSamples int
	SkipSamples   int
}

// TotalDelaySeconds returns the signed latency change the action applies to
// its stream (positive = stream delayed).
func (a Action) TotalDelaySeconds() float64 {
	ins := float64(a.InsertFrames*audio.FrameSamples + a.InsertSamples)
	skp := float64(a.SkipFrames*audio.FrameSamples + a.SkipSamples)
	return (ins - skp) / audio.SampleRate
}

// Config tunes the compensation loop.
type Config struct {
	// MinCorrectionSec is the hysteresis threshold (default 5 ms).
	MinCorrectionSec float64
	// SettleSec is how long new measurements are ignored after a
	// correction is issued (default 6 s: the estimator's sliding window
	// plus uplink delay; the paper observes a 4-6 s response time).
	SettleSec float64
}

func (c Config) withDefaults() Config {
	if c.MinCorrectionSec == 0 {
		c.MinCorrectionSec = 0.005
	}
	if c.SettleSec == 0 {
		c.SettleSec = 6
	}
	return c
}

// Compensator turns ISD measurements into insert actions.
type Compensator struct {
	cfg Config
	// settleUntil is the local time before which measurements are ignored.
	settleUntil float64
}

// New returns a compensator with the given configuration.
func New(cfg Config) *Compensator {
	return &Compensator{cfg: cfg.withDefaults(), settleUntil: math.Inf(-1)}
}

// Offer presents one ISD measurement taken at local time now (seconds).
// If a correction is warranted, the action to apply is returned; otherwise
// nil. Sign convention: positive ISD means the screen audio is heard
// *after* the accessory audio (screen lags), so the accessory stream is
// delayed by inserting silence; negative ISD delays the screen stream.
func (c *Compensator) Offer(now, isdSeconds float64) *Action {
	if now < c.settleUntil || math.Abs(isdSeconds) < c.cfg.MinCorrectionSec {
		return nil
	}
	// Screen lags: delay the accessory stream. Screen leads (rare, §5.1):
	// delay the screen stream.
	s := AccessoryStream
	if isdSeconds <= 0 {
		s = ScreenStream
	}
	act := Insert(s, math.Abs(isdSeconds))
	c.settleUntil = now + c.cfg.SettleSec
	return &act
}

// Insert returns the action that delays stream s by sec seconds (sec ≥ 0):
// the delay is rounded once to whole samples, then split into 20 ms
// frames and a sample remainder.
func Insert(s Stream, sec float64) Action {
	n := int(math.Round(sec * audio.SampleRate))
	return Action{Stream: s, InsertFrames: n / audio.FrameSamples, InsertSamples: n % audio.FrameSamples}
}
