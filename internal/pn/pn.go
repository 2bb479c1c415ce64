// Package pn implements Ekho's pseudo-noise markers (paper §4.2):
// generation of band-limited PN sequences, the game-audio amplitude tracker
// of Eq. 2, and the injector that periodically embeds markers into the
// screen audio stream while logging where they were added.
//
// A marker is a length-L vector of Gaussian samples band-pass filtered to
// 6-12 kHz: chat uplinks are encoded at super-wide-band (content up to
// 12 kHz) while most game-audio energy sits below 6 kHz, so this band
// survives compression yet is easily masked below audibility.
package pn

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

// Canonical marker parameters from the paper.
const (
	// BandLowHz / BandHighHz bound the marker spectrum.
	BandLowHz  = 6000.0
	BandHighHz = 12000.0
	// DefaultLength is L = 48000 samples (1 s at 48 kHz).
	DefaultLength = audio.MarkerLength
	// DefaultGamma is the amplitude-tracker smoothing factor (Eq. 2).
	DefaultGamma = 0.4
	// TrackerWindow is T = 960 samples (20 ms), one OPUS packet.
	TrackerWindow = audio.FrameSamples
	// DefaultC is the relative marker volume chosen in §6.3.
	DefaultC = 0.5
)

// Sequence is a reusable PN marker template.
type Sequence struct {
	Samples []float64 // band-limited, unit-RMS PN samples
	Seed    int64     // generator seed (shared by server and estimator)
}

var sequences sync.Map // [2]int64{seed, length} -> samples, filtered once

// NewSequence generates a PN sequence of the given length: length Gaussian
// variables band-pass filtered to 6-12 kHz, normalized to unit RMS so the
// injected amplitude is controlled entirely by C·a_k. The filter's plan is
// not cached (no later hub path needs one that size), the result is, and
// every call gets its own copy of the samples.
func NewSequence(seed int64, length int) *Sequence {
	key := [2]int64{seed, int64(length)}
	if s, ok := sequences.Load(key); ok {
		return &Sequence{Samples: slices.Clone(s.([]float64)), Seed: seed}
	}
	rng := rand.New(rand.NewSource(seed))
	raw := make([]float64, length)
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	fir := dsp.BandPass(BandLowHz, BandHighHz, audio.SampleRate, 511)
	filtered := fir.ApplyOnce(raw)
	rms := dsp.RMS(filtered)
	if rms > 0 {
		for i := range filtered {
			filtered[i] /= rms
		}
	}
	sequences.Store(key, slices.Clone(filtered))
	return &Sequence{Samples: filtered, Seed: seed}
}

// Len returns the marker length L.
func (s *Sequence) Len() int { return len(s.Samples) }

// AmplitudeTracker implements the moving-average band-power tracker of
// Eq. 2: a_k = γ·a_{k−1} + (1−γ)·p(x[(k−1)T : kT]) where p is the signal
// amplitude in the 6-12 kHz band measured over T samples (20 ms).
//
// "Amplitude" here is the RMS of the band-limited signal (not power):
// the injected marker is C·a_k·w with w unit-RMS, so equal C means equal
// marker-to-game loudness ratio in the marker band.
type AmplitudeTracker struct {
	Gamma float64
	a     float64
	init  bool
}

// NewAmplitudeTracker returns a tracker with γ = DefaultGamma.
func NewAmplitudeTracker() *AmplitudeTracker {
	return &AmplitudeTracker{Gamma: DefaultGamma}
}

// Update consumes one T-sample window of game audio and returns the new
// smoothed amplitude a_k.
func (t *AmplitudeTracker) Update(window []float64) float64 {
	p := bandRMS(window)
	if !t.init {
		// Seed the average with the first observation instead of zero so
		// the first marker after stream start is not silent.
		t.a = p
		t.init = true
		return t.a
	}
	t.a = t.Gamma*t.a + (1-t.Gamma)*p
	return t.a
}

// bandRMS measures RMS amplitude in the 6-12 kHz band over the window.
// BandPower zero-pads the 960-sample window to NextPow2 = 1024 internally
// (finer bins than the window warrants, but identical for every frame, so
// the tracker's smoothed estimate is unaffected) and runs on the cached
// real-input plan — this is the hot per-frame spectral probe of every
// session, and it allocates nothing in steady state.
func bandRMS(window []float64) float64 {
	return math.Sqrt(dsp.BandPower(window, audio.SampleRate, BandLowHz, BandHighHz))
}

// MinAmplitude is the floor applied to the tracked amplitude so markers
// remain detectable through near-silent game passages. It corresponds to
// roughly -52 dBFS, far below audibility.
const MinAmplitude = 0.0025

// Injection records one marker added to the stream.
type Injection struct {
	// StartSample is the sample index in the stream where the marker's
	// first sample was written.
	StartSample int
	// FrameID is StartSample/TrackerWindow: the audio packet carrying the
	// marker start (the ID Ekho-Compensator logs for Ekho-Estimator).
	FrameID int
	// Amplitude is the C·a_k scale actually applied.
	Amplitude float64
}

// Injector embeds markers into a screen-audio stream every IntervalSamples
// samples, scaling each marker by C times the tracked game-audio amplitude.
// It operates frame by frame (20 ms) to mirror the per-packet processing of
// the server implementation.
type Injector struct {
	Seq      *Sequence
	C        float64
	Interval int // samples between marker starts
	tracker  *AmplitudeTracker

	pos        int   // absolute sample position of the next frame
	nextMarker int   // absolute sample position of the next marker start
	active     []int // start positions of the markers still playing
	log        []Injection
	logLimit   int // 0 = unlimited; otherwise retain only the newest entries
	dropped    int // log entries trimmed so far (keeps InjectionCount exact)
}

// NewInjector returns an injector with the paper's defaults (1 s interval).
func NewInjector(seq *Sequence, c float64) *Injector {
	return &Injector{
		Seq:      seq,
		C:        c,
		Interval: audio.SampleRate, // 1 s
		tracker:  NewAmplitudeTracker(),
	}
}

// ProcessFrame adds marker content to one 20 ms frame in place and advances
// the stream position. Markers are started on frame boundaries (as in the
// paper, where the server logs the audio frame ID containing the marker
// start). Per Eq. 2, the marker's amplitude is re-scaled every window by
// the *current* C·a_k — a_k keeps adapting while the 1 s marker plays, so
// the marker-to-game loudness ratio stays constant through transients.
func (in *Injector) ProcessFrame(frame []float64) {
	if len(frame) != TrackerWindow {
		panic("pn: ProcessFrame requires 20 ms frames")
	}
	amp := max(in.tracker.Update(frame), MinAmplitude)
	scaled := in.C * amp
	// Start a new marker if its start time falls within this frame.
	if in.pos >= in.nextMarker {
		in.active = append(in.active, in.pos)
		in.log = append(in.log, Injection{
			StartSample: in.pos,
			FrameID:     in.pos / TrackerWindow,
			Amplitude:   scaled,
		})
		in.nextMarker = in.pos + in.Interval
		in.trimLog()
	}
	// Mix every active marker's overlap with this frame at the current
	// tracked amplitude.
	w := in.Seq.Samples
	kept := in.active[:0]
	for _, start := range in.active {
		offset := in.pos - start // marker sample index at frame start
		// Mix over the frame samples the marker covers: [lo, hi).
		lo, hi := max(0, -offset), min(len(frame), len(w)-offset)
		if lo < hi {
			dst := frame[lo:hi]
			for i, x := range w[offset+lo : offset+hi] {
				dst[i] += scaled * x
			}
		}
		if offset+len(frame) < len(w) {
			kept = append(kept, start)
		}
	}
	in.active = kept
	in.pos += len(frame)
}

// Log returns the retained injections (all of them unless SetLogLimit
// bounded the log), oldest first.
func (in *Injector) Log() []Injection { return append([]Injection(nil), in.log...) }

// InjectionCount returns how many markers have started so far without
// copying the log — the per-tick marker check reads it twice per frame.
// Trimmed entries still count.
func (in *Injector) InjectionCount() int { return in.dropped + len(in.log) }

// SetLogLimit bounds the retained injection log to the newest n entries
// (0 restores the default: unlimited). Long-running servers set a limit
// so per-session memory stays flat; InjectionCount keeps counting every
// marker ever started.
func (in *Injector) SetLogLimit(n int) {
	in.logLimit = n
	in.trimLog()
}

// trimLog drops the oldest log entries beyond the limit, in place.
func (in *Injector) trimLog() {
	if in.logLimit <= 0 || len(in.log) <= in.logLimit {
		return
	}
	drop := len(in.log) - in.logLimit
	in.dropped += drop
	n := copy(in.log, in.log[drop:])
	in.log = in.log[:n]
}

// Mark is a one-shot helper: injects markers into a copy of b with the
// given C and returns the marked buffer plus the injection log. The buffer
// is padded to a whole number of frames internally; the returned buffer has
// the original length.
func Mark(b *audio.Buffer, seq *Sequence, c float64) (*audio.Buffer, []Injection) {
	padded := b.Clone()
	rem := padded.Len() % TrackerWindow
	if rem != 0 {
		padded.Samples = append(padded.Samples, make([]float64, TrackerWindow-rem)...)
	}
	inj := NewInjector(seq, c)
	for i := 0; i+TrackerWindow <= padded.Len(); i += TrackerWindow {
		inj.ProcessFrame(padded.Samples[i : i+TrackerWindow])
	}
	padded.Samples = padded.Samples[:b.Len()]
	return padded, inj.Log()
}

// ConstantMark injects markers at a fixed absolute amplitude instead of
// tracking game audio — the muted-screen mode of §6.5 where the screen
// plays only faint PN pulses for video-to-audio synchronization.
// amplitudeDB is relative to the MinAmplitude floor (so 0 dB = floor).
func ConstantMark(length int, seq *Sequence, amplitudeDB float64) (*audio.Buffer, []Injection) {
	b := audio.NewBuffer(audio.SampleRate, length)
	amp := MinAmplitude * math.Pow(10, amplitudeDB/20)
	var log []Injection
	for start := 0; start+seq.Len() <= length; start += audio.SampleRate {
		b.MixInto(seq.Samples, start, amp)
		log = append(log, Injection{StartSample: start, FrameID: start / TrackerWindow, Amplitude: amp})
	}
	return b, log
}
