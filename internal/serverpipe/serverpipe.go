// Package serverpipe is the transport-agnostic per-session server core of
// Ekho: one Pipeline owns everything the paper's server does per session —
// the two compensable downlink streams (silence-debt scheduling), PN
// marker injection with a pending-marker ledger, marker↔playback-record
// matching (§4.3), chat uplink sequencing (loss concealment, reorder
// drop, codec-delay timestamp correction), the streaming estimator and
// the compensator (§4.4).
//
// Every hosting layer drives the same core: the multi-tenant hub feeds it
// from UDP datagrams, the discrete-event simulator from virtual-time
// callbacks, and the experiments harness directly. The host supplies the
// transport, the content-time clock and an EventSink; the pipeline
// supplies identical measurement behavior everywhere.
//
// The steady-state hot path (NextScreenFrame / NextAccessoryFrame /
// OfferChat without detections) allocates nothing: the chat-decode
// scratch is borrowed per call from dsp's free list rather than held per
// session, the record book and marker ledger mutate in place in storage
// sized on first use, and the injector's log is bounded.
package serverpipe

import (
	"math"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/dsp"
	"ekho/internal/estimator"
	"ekho/internal/pn"
)

// frameSec is the content-time advance of one 20 ms frame.
const frameSec = float64(audio.FrameSamples) / audio.SampleRate

// maxConcealFrames bounds the uplink gap OfferChat conceals frame by
// frame: one marker interval (1 s). Concealment keeps the estimator's
// timeline contiguous across short loss; a longer gap, or a sequence jump
// from a restarted or hostile client, resyncs the timeline instead of
// synthesizing up to 2³² frames of filler.
const maxConcealFrames = 50

// injectorLogKeep bounds the retained injection log; the pipeline only
// needs the start count, so a short tail (for debugging) suffices.
const injectorLogKeep = 16

// trackerBlankSec is how long after an applied correction the drift
// tracker ignores incoming measurements, measured on the tracker's own
// x-axis (marker detection time). A correction changes the ISD trajectory
// only after it propagates through jitter buffers and playout;
// measurements detected before that still show the old trajectory, and
// letting them seed the freshly reset window makes the next fit see a
// step or kink that is not drift. Blanking on detection time rather than
// arrival time also excludes measurements that were detected
// pre-correction but delivered late (uplink and correlation latency run
// to seconds).
const trackerBlankSec = 2.5

// mutedAmp is the constant marker amplitude of the §6.5 muted-screen
// mode: 9 dB above the injector floor.
var mutedAmp = pn.MinAmplitude * math.Pow(10, 9.0/20)

// Config assembles one per-session pipeline.
type Config struct {
	// Game is the looping game clip both streams transmit (shared,
	// read-only across sessions).
	Game *audio.Buffer
	// Seq is the session's PN marker template (shared with the
	// estimator, read-only). The hub hands every session the same
	// template; that is safe because each session's estimator hears only
	// its own chat uplink.
	Seq *pn.Sequence
	// MarkerC is the relative marker volume (0 = paper default 0.5).
	MarkerC float64
	// Codec is the chat uplink profile (zero value = SWB32, the paper's
	// uplink).
	Codec codec.Profile
	// Compensator tunes the correction loop (zero value = paper
	// defaults: 5 ms hysteresis, 6 s settling).
	Compensator compensator.Config
	// Drift turns on the micro-resampling regime for clock-drift (SRO)
	// scenarios. Off by default: with Drift false the pipeline is
	// structurally identical to the level-only loop and its behavior
	// stays bit-exact with pre-drift sessions. Only the simulator
	// (internal/session) sets it; trace replay copies it from the
	// recorded header, and the hub leaves it false.
	Drift bool
	// Now is the pluggable content-time clock used for compensator
	// settling and event timestamps. Nil uses the built-in clock: the
	// count of produced screen frames times 20 ms, which holds whether
	// the host is paced by a wall-clock ticker or driven flat-out.
	Now func() float64
	// Sink receives lifecycle events (nil = NopSink).
	Sink EventSink
	// DisableMarkers turns injection off (the Ekho-disabled baseline).
	DisableMarkers bool
	// InterpolatedInsert synthesizes inserted delay from surrounding
	// audio (PLC-style) instead of hard silence. Only the simulator sets
	// it, like Drift.
	InterpolatedInsert bool
	// MutedScreen enables the §6.5 mode: screen game audio is silenced
	// and markers are mixed at a constant faint amplitude (mutedAmp)
	// instead of tracking the (absent) game audio. Only the simulator
	// sets it, like Drift.
	MutedScreen bool
	// ChatStartsAtZero pins the first expected chat sequence number to
	// zero (the simulator's convention) instead of syncing to the first
	// packet seen (the hub's convention for clients joining mid-stream).
	ChatStartsAtZero bool
}

// Normalized returns cfg with every defaulted field made explicit — the
// exact configuration New assembles. The trace recorder captures the
// normalized form so replay rebuilds an identical pipeline.
func (cfg Config) Normalized() Config { return cfg.withDefaults() }

func (cfg Config) withDefaults() Config {
	if cfg.MarkerC == 0 {
		cfg.MarkerC = pn.DefaultC
	}
	if cfg.Codec.Name == "" {
		cfg.Codec = codec.SWB32
	}
	if cfg.Sink == nil {
		cfg.Sink = NopSink{}
	}
	return cfg
}

// Pipeline is one session's server core. It is not safe for concurrent
// use: the host serializes calls (the hub's loop, the simulator's event
// loop).
type Pipeline struct {
	cfg Config

	screen    *Stream
	accessory *Stream
	injector  *pn.Injector
	est       *estimator.Streamer
	comp      *compensator.Compensator
	dec       *codec.Decoder

	// Drift regime (nil unless Config.Drift): tracker fits the ISD slope
	// across measurements, drift wraps comp with the micro-resampling
	// policy.
	tracker *estimator.DriftTracker
	drift   *compensator.DriftLoop
	// lastDetection is the newest measurement detection time seen;
	// trackerBlankUntil suppresses tracker feeding for measurements
	// detected before the latest correction propagated (trackerBlankSec,
	// on the detection-time axis — late-delivered pre-correction
	// measurements are excluded no matter when they arrive).
	lastDetection     float64
	trackerBlankUntil float64

	ledger MarkerLedger
	book   RecordBook
	seqr   ChatSequencer
	sink   EventSink

	codecDelaySec float64
	lastChatEnd   float64
	frames        int // produced screen frames (the default clock)

	mutedPos int
}

// New assembles a pipeline. Config.Game and Config.Seq are required.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	if cfg.Game == nil || cfg.Seq == nil {
		panic("serverpipe: Config.Game and Config.Seq are required")
	}
	p := &Pipeline{
		cfg:           cfg,
		screen:        NewStream(cfg.Game),
		accessory:     NewStream(cfg.Game),
		injector:      pn.NewInjector(cfg.Seq, cfg.MarkerC),
		est:           estimator.NewStreamer(estimator.Config{Seq: cfg.Seq}),
		comp:          compensator.New(cfg.Compensator),
		dec:           codec.NewDecoder(cfg.Codec),
		seqr:          NewChatSequencer(cfg.ChatStartsAtZero),
		sink:          cfg.Sink,
		codecDelaySec: float64(cfg.Codec.Delay()) / audio.SampleRate,
	}
	p.injector.SetLogLimit(injectorLogKeep)
	if cfg.Drift {
		p.tracker = new(estimator.DriftTracker)
		p.drift = compensator.NewDriftLoop(p.comp)
	}
	if cfg.InterpolatedInsert {
		p.screen.EnableInterpolation()
		p.accessory.EnableInterpolation()
	}
	return p
}

// Now returns the session's content time in seconds.
func (p *Pipeline) Now() float64 {
	if p.cfg.Now != nil {
		return p.cfg.Now()
	}
	return float64(p.frames) * frameSec
}

// NextScreenFrame fills dst with the next marked screen frame and
// advances the built-in content clock. Markers that start here are
// registered in the pending ledger under the frame's content identity
// (for all-gap frames, the upcoming content position).
func (p *Pipeline) NextScreenFrame(dst []float64) FrameInfo {
	fi := p.screen.Next(dst)
	if p.cfg.MutedScreen {
		// §6.5: the screen's game audio is muted; only faint markers at
		// a constant amplitude are transmitted (content bookkeeping is
		// retained — it represents the on-screen video frames).
		for i := range dst {
			dst[i] = 0
		}
		if !p.cfg.DisableMarkers && p.injectMutedMarker(dst) {
			p.noteMarker(fi)
		}
	} else if !p.cfg.DisableMarkers {
		before := p.injector.InjectionCount()
		p.injector.ProcessFrame(dst)
		if p.injector.InjectionCount() > before {
			p.noteMarker(fi)
		}
	}
	p.frames++
	return fi
}

// NextAccessoryFrame fills dst with the next accessory frame.
func (p *Pipeline) NextAccessoryFrame(dst []float64) FrameInfo {
	return p.accessory.Next(dst)
}

// noteMarker records a marker that started at this frame's first sample.
// Its content identity: the frame's first content sample, or — for an
// all-gap frame — the upcoming content position.
func (p *Pipeline) noteMarker(fi FrameInfo) {
	mc := fi.ContentStart
	if mc < 0 {
		mc = p.screen.NextContent()
	}
	p.ledger.Add(mc)
	p.sink.MarkerInjected(mc)
}

// injectMutedMarker mixes the PN sequence at a constant amplitude into
// the outgoing muted-screen frame; markers start every second of
// transmitted stream. Reports whether a marker started at this frame's
// first sample.
func (p *Pipeline) injectMutedMarker(dst []float64) bool {
	started := p.mutedPos%audio.SampleRate == 0
	w := p.cfg.Seq.Samples
	for i := range dst {
		mi := (p.mutedPos + i) % audio.SampleRate
		if mi < len(w) {
			dst[i] += mutedAmp * w[mi]
		}
	}
	p.mutedPos += len(dst)
	return started
}

// OfferRecord adds one accessory playback record. Matching against
// pending markers happens on the next OfferChat (hosts deliver records
// piggybacked on chat packets, so the record book is always current when
// chat audio arrives).
func (p *Pipeline) OfferRecord(r Record) { p.book.Add(r) }

// OfferChat runs the server's uplink path on one chat packet: resolve
// pending markers against the record book, conceal lost packets so the
// estimator's timeline stays contiguous (or, past maxConcealFrames,
// resync it), drop stale reorders, decode, correct the capture timestamp
// for the codec's lookahead delay, feed the estimator and route any
// resulting compensation.
func (p *Pipeline) OfferChat(seq uint32, adcLocal float64, encoded []byte) {
	p.ledger.Resolve(&p.book, p.est, p.sink)
	p.book.Evict(p.ledger.MinPending())

	// Decode/conceal scratch for this call: AddChat copies the samples it
	// keeps, so one frame-sized buffer serves every frame below.
	buf := dsp.BorrowFloats(audio.FrameSamples)
	defer dsp.ReturnFloats(buf)
	lost, fresh := p.seqr.Offer(seq)
	if lost > maxConcealFrames {
		// The audio before the gap can no longer pair with what follows:
		// restart the estimator at this packet's timestamp.
		p.est.Reset()
		p.sink.ChatResync(seq, lost)
		lost = 0
	}
	for i := lost; i > 0; i-- {
		concealed := p.dec.ConcealTo(buf[:0])
		p.sink.ChatGapConcealed(seq-uint32(i), p.lastChatEnd)
		p.feedChat(concealed, p.lastChatEnd)
	}
	if !fresh {
		return // stale duplicate/reorder
	}
	// Decoder output lags capture by one codec hop; correct the stamp.
	startLocal := adcLocal - p.codecDelaySec
	decoded, err := p.dec.DecodeTo(buf[:0], encoded)
	if err != nil {
		// A corrupt or hostile frame is concealed like a lost one, and
		// counted the same way.
		decoded = p.dec.ConcealTo(buf[:0])
		p.sink.ChatGapConcealed(seq, startLocal)
	}
	p.feedChat(decoded, startLocal)
}

// feedChat pushes decoded chat audio into the streaming estimator and
// acts on any resulting measurements.
func (p *Pipeline) feedChat(samples []float64, startLocal float64) {
	ms := p.est.AddChat(samples, startLocal)
	p.lastChatEnd = startLocal + float64(len(samples))/audio.SampleRate
	if len(ms) == 0 {
		return
	}
	now := p.Now()
	for _, m := range ms {
		p.sink.ISDMeasurement(now, m)
		if p.drift == nil {
			if act := p.comp.Offer(now, m.ISDSeconds); act != nil {
				p.sink.CompensationAction(now, *act)
				p.route(*act)
			}
			continue
		}
		// Drift regime: fit the slope across measurements (keyed on the
		// marker's detection time — carried in the measurement, so replay
		// reconstructs the identical fit), then let the drift loop pick
		// between a rate retune and a discrete level correction. Either
		// correction moves the ISD trajectory, so the window restarts —
		// and stays blanked while measurements still reflecting the
		// pre-correction trajectory drain through the playout pipeline
		// (those would seed the fresh window with a step that reads as
		// enormous slope).
		if m.DetectionTime > p.lastDetection {
			p.lastDetection = m.DetectionTime
		}
		if m.DetectionTime >= p.trackerBlankUntil {
			p.tracker.Add(m.DetectionTime, m.ISDSeconds)
		}
		act, rs := p.drift.Offer(now, m.ISDSeconds, p.tracker.Fit())
		if rs != nil {
			p.routeResample(*rs)
			p.sink.ResampleApplied(now, *rs)
			p.tracker.Reset()
			p.trackerBlankUntil = p.lastDetection + trackerBlankSec
		}
		if act != nil {
			p.sink.CompensationAction(now, *act)
			p.route(*act)
			p.tracker.Reset()
			p.trackerBlankUntil = p.lastDetection + trackerBlankSec
		}
	}
}

// route applies a compensation action to the owning stream.
func (p *Pipeline) route(a compensator.Action) {
	if a.Stream == compensator.ScreenStream {
		p.screen.Apply(a)
		return
	}
	p.accessory.Apply(a)
}

// routeResample applies a rate retune to the owning stream.
func (p *Pipeline) routeResample(r compensator.Resample) {
	if r.Stream == compensator.ScreenStream {
		p.screen.SetResamplePPM(r.PPM)
		return
	}
	p.accessory.SetResamplePPM(r.PPM)
}

// PendingMarkers reports how many injected markers await a covering
// playback record.
func (p *Pipeline) PendingMarkers() int { return p.ledger.Pending() }

// RecordCount reports how many playback records are retained.
func (p *Pipeline) RecordCount() int { return p.book.Len() }
