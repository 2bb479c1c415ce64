package estimator

import (
	"math"
	"sort"

	"ekho/internal/audio"
)

// Streamer is the incremental form of the estimator used by Ekho-Server:
// chat-audio frames and accessory marker timestamps arrive continuously
// and measurements are emitted once per detected marker.
//
// Internally it runs the IncrementalDetector and applies the §4.3 matching
// with a short hold-back so that, when a strong room reflection is
// detected alongside the direct path, the per-marker arrival selection
// (see betterArrival) can still pick the direct path.
//
// The paper notes Ekho-Estimator needs 2-5 seconds of recording before a
// robust ISD is available; the detector's Eq. 7 companion wait (one marker
// interval) plus the hold-back put this implementation at the low end of
// that range.
type Streamer struct {
	cfg Config
	det *IncrementalDetector

	rate         int
	startLocal   float64 // local time of the first chat sample
	started      bool
	totalSamples int

	markerTimes []float64

	// held holds the best candidate measurement per marker during the
	// echo hold-back window; done records markers already emitted.
	held map[float64]heldMeasurement
	done map[float64]bool
}

type heldMeasurement struct {
	m Measurement
	// flushAfter is the absolute sample position after which the held
	// measurement is final.
	flushAfter int
}

// holdBackSamples covers the latest plausible room reflection (~120 ms in
// the simulated rooms) plus margin.
const holdBackSamples = 18000 // 375 ms

// NewStreamer returns a streaming estimator.
func NewStreamer(cfg Config) *Streamer {
	c := cfg.withDefaults()
	return &Streamer{
		cfg:  c,
		det:  NewIncrementalDetector(c),
		rate: audio.SampleRate,
		held: make(map[float64]heldMeasurement),
		done: make(map[float64]bool),
	}
}

// AddMarkerTime records that the accessory stream carried a marker at the
// given local playback time (from Ekho-Compensator's frame-ID log joined
// with the client's playback timestamps).
func (s *Streamer) AddMarkerTime(localTime float64) {
	s.markerTimes = append(s.markerTimes, localTime)
	sort.Float64s(s.markerTimes)
	// Trim history far behind the audio frontier to bound memory.
	cutoff := s.frontierLocal() - 10
	trim := 0
	for trim < len(s.markerTimes) && s.markerTimes[trim] < cutoff {
		trim++
	}
	if trim > 0 {
		n := copy(s.markerTimes, s.markerTimes[trim:])
		s.markerTimes = s.markerTimes[:n]
	}
}

// frontierLocal is the local time of the newest chat sample.
func (s *Streamer) frontierLocal() float64 {
	return s.startLocal + float64(s.totalSamples)/float64(s.rate)
}

// AddChat appends captured chat-audio samples whose first sample was taken
// at local time startLocal. Frames must arrive in order; the caller fills
// uplink loss with concealment so the timeline stays contiguous. Any
// measurements that became final are returned.
func (s *Streamer) AddChat(samples []float64, startLocal float64) []Measurement {
	if !s.started {
		s.startLocal = startLocal
		s.started = true
	}
	dets := s.det.Feed(samples)
	s.totalSamples += len(samples)
	for _, det := range dets {
		s.offer(det)
	}
	return s.flush()
}

// offer matches one detection against the marker schedule and keeps the
// best arrival per marker.
func (s *Streamer) offer(det Detection) {
	if len(s.markerTimes) == 0 {
		return
	}
	td := s.startLocal + float64(det.Sample)/float64(s.rate)
	i := sort.SearchFloat64s(s.markerTimes, td)
	best := math.Inf(1)
	bestTime := 0.0
	for _, j := range []int{i - 1, i} {
		if j < 0 || j >= len(s.markerTimes) {
			continue
		}
		if diff := td - s.markerTimes[j]; math.Abs(diff) < math.Abs(best) {
			best = diff
			bestTime = s.markerTimes[j]
		}
	}
	if math.Abs(best) > s.cfg.MaxISDSeconds || s.done[bestTime] {
		return
	}
	m := Measurement{ISDSeconds: best, DetectionTime: td, MarkerTime: bestTime, Strength: det.Strength}
	if prev, ok := s.held[bestTime]; !ok || betterArrival(m, prev.m) {
		s.held[bestTime] = heldMeasurement{m: m, flushAfter: det.Sample + holdBackSamples}
	}
}

// flush finalizes held measurements whose hold-back has elapsed.
func (s *Streamer) flush() []Measurement {
	var out []Measurement
	for mt, h := range s.held {
		if s.totalSamples > h.flushAfter {
			out = append(out, h.m)
			s.done[mt] = true
			delete(s.held, mt)
		}
	}
	// Bound the done set: forget markers far behind the frontier.
	if len(s.done) > 64 {
		cutoff := s.frontierLocal() - 10
		for mt := range s.done {
			if mt < cutoff {
				delete(s.done, mt)
			}
		}
	}
	// The sort (and its closure) only runs when something was emitted, so
	// the no-detection steady state stays allocation-free.
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].DetectionTime < out[j].DetectionTime })
	}
	return out
}

// Reset clears all buffered audio and marker history (used when stale
// measurements must be discarded, e.g. after a long uplink outage). The
// next AddChat starts a new timeline. Every buffer is kept, so a reset
// allocates nothing.
func (s *Streamer) Reset() {
	s.det.Reset()
	s.markerTimes = s.markerTimes[:0]
	s.started = false
	s.totalSamples = 0
	clear(s.held)
	clear(s.done)
}
