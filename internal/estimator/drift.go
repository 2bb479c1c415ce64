package estimator

import "math"

// Drift tracking.
//
// The base estimator treats ISD as a level: each measurement stands alone
// and the compensator corrects the latest value. Real device chains carry
// sample-rate offsets of tens of ppm ("Sample Rate Offset Compensated AEC
// for Multi-Device Scenarios", arXiv:2507.05399), which turn ISD into a
// ramp: d(t) = level + slope·t, with slope ≈ the accessory/screen clock
// skew in seconds per second. DriftTracker fits that line over a sliding
// window of ISD measurements so the compensator can cancel the slope with
// continuous micro-resampling instead of chasing the ramp with discrete
// silence/skip steps.

// Sliding-window fit constants.
const (
	// driftWindow is the maximum number of measurements retained.
	driftWindow = 32
	// driftSpanSec is the maximum age of a retained measurement relative
	// to the newest one. Older points are evicted so a slope change is
	// forgotten within one span.
	driftSpanSec = 30
	// driftMinPoints is the minimum number of points for a valid fit (a
	// two-parameter fit needs well more than 2 points before its standard
	// error means anything).
	driftMinPoints = 6
	// driftMinSpanSec is the minimum time span for a valid fit; slope
	// estimated over a short baseline is dominated by measurement noise.
	driftMinSpanSec = 4
)

// DriftFit is one windowed least-squares fit of ISD against time.
type DriftFit struct {
	// LevelSeconds is the fitted ISD at the newest retained measurement's
	// time — what the discrete compensator should correct now.
	LevelSeconds float64
	// SlopeSecPerSec is the fitted drift rate (seconds of ISD per second;
	// multiply by 1e6 for ppm).
	SlopeSecPerSec float64
	// SlopeStdErr is the standard error of the slope estimate; a slope is
	// trustworthy when |SlopeSecPerSec| exceeds a few SlopeStdErr.
	SlopeStdErr float64
	// ResidualRMS is the RMS of the fit residuals (seconds).
	ResidualRMS float64
	// Points and SpanSec describe the window the fit used.
	Points  int
	SpanSec float64
	// Valid reports whether the window met the minimum point count and
	// time span. Invalid fits carry the latest raw ISD as LevelSeconds
	// and a zero slope.
	Valid bool
}

// driftPoint is one retained (time, ISD) observation.
type driftPoint struct {
	t, isd float64
}

// DriftTracker maintains the sliding window and produces fits. The zero
// value is an empty window, ready to use.
type DriftTracker struct {
	ring [driftWindow]driftPoint
	head int // index of oldest point
	n    int // points in window
}

// Reset discards the window. Callers reset after every applied
// compensation: a discrete insert/skip or a resample-rate change moves the
// ISD trajectory, so pre-action points would corrupt the next fit.
func (d *DriftTracker) Reset() { d.head, d.n = 0, 0 }

// Len reports the number of retained points.
func (d *DriftTracker) Len() int { return d.n }

// Add appends one ISD measurement stamped with its detection time (the
// same clock for every point; the serverpipe uses the server's session
// clock). Non-monotonic timestamps reset the window — the clock it fits
// against must not step backwards.
func (d *DriftTracker) Add(t, isd float64) {
	if d.n > 0 {
		newest := d.ring[(d.head+d.n-1)%len(d.ring)].t
		if t < newest {
			d.Reset()
		}
	}
	if d.n == len(d.ring) {
		d.head = (d.head + 1) % len(d.ring)
		d.n--
	}
	d.ring[(d.head+d.n)%len(d.ring)] = driftPoint{t: t, isd: isd}
	d.n++
	d.evictOld(t)
}

// evictOld drops points older than the span limit behind the newest.
func (d *DriftTracker) evictOld(newest float64) {
	for d.n > 0 && newest-d.ring[d.head].t > driftSpanSec {
		d.head = (d.head + 1) % len(d.ring)
		d.n--
	}
}

// Fit runs the windowed least squares. With too few points or too short a
// baseline the fit is marked invalid and degrades to the latest raw
// measurement with zero slope, which reproduces the level-only behavior.
func (d *DriftTracker) Fit() DriftFit {
	if d.n == 0 {
		return DriftFit{}
	}
	newest := d.ring[(d.head+d.n-1)%len(d.ring)]
	oldest := d.ring[d.head]
	fit := DriftFit{
		LevelSeconds: newest.isd,
		Points:       d.n,
		SpanSec:      newest.t - oldest.t,
	}
	if d.n < driftMinPoints || fit.SpanSec < driftMinSpanSec {
		return fit
	}
	// Two-pass least squares around the centroid for numerical stability
	// (session times reach thousands of seconds; ISDs are milliseconds).
	var tMean, yMean float64
	for i := 0; i < d.n; i++ {
		p := d.ring[(d.head+i)%len(d.ring)]
		tMean += p.t
		yMean += p.isd
	}
	tMean /= float64(d.n)
	yMean /= float64(d.n)
	var stt, sty float64
	for i := 0; i < d.n; i++ {
		p := d.ring[(d.head+i)%len(d.ring)]
		dt := p.t - tMean
		stt += dt * dt
		sty += dt * (p.isd - yMean)
	}
	if stt == 0 {
		return fit
	}
	slope := sty / stt
	var rss float64
	for i := 0; i < d.n; i++ {
		p := d.ring[(d.head+i)%len(d.ring)]
		r := p.isd - (yMean + slope*(p.t-tMean))
		rss += r * r
	}
	fit.SlopeSecPerSec = slope
	fit.LevelSeconds = yMean + slope*(newest.t-tMean)
	fit.ResidualRMS = math.Sqrt(rss / float64(d.n))
	if d.n > 2 {
		fit.SlopeStdErr = math.Sqrt(rss / float64(d.n-2) / stt)
	}
	fit.Valid = true
	return fit
}
