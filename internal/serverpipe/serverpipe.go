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
// OfferChat without detections) allocates nothing: scratch buffers live
// in the Pipeline, the record book and marker ledger mutate in place, and
// the injector's log is bounded.
package serverpipe

import (
	"math"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
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

// Config assembles one per-session pipeline.
type Config struct {
	// Game is the looping game clip both streams transmit (shared,
	// read-only across sessions).
	Game *audio.Buffer
	// Seq is the session's PN marker template (shared with the
	// estimator; per-session seeds keep concurrent sessions orthogonal).
	Seq *pn.Sequence
	// MarkerC is the relative marker volume (0 = paper default 0.5).
	MarkerC float64
	// Codec is the chat uplink profile (zero value = SWB32, the paper's
	// uplink).
	Codec codec.Profile
	// Compensator tunes the correction loop (zero value = paper
	// defaults: 5 ms hysteresis, 6 s settling).
	Compensator compensator.Config
	// Drift tunes the micro-resampling regime for clock-drift (SRO)
	// scenarios. Disabled by default: with Drift.Enabled false the
	// pipeline is structurally identical to the level-only loop and its
	// behavior stays bit-exact with pre-drift sessions.
	Drift compensator.DriftConfig
	// DriftTracker tunes the sliding-window slope fit feeding the drift
	// regime (zero value = estimator defaults; ignored unless
	// Drift.Enabled).
	DriftTracker estimator.DriftConfig
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
	// audio (PLC-style) instead of hard silence.
	InterpolatedInsert bool
	// MutedScreen enables the §6.5 mode: screen game audio is silenced
	// and markers are mixed at a constant faint amplitude instead of
	// tracking the (absent) game audio.
	MutedScreen bool
	// MutedMarkerAmpDB is the constant marker amplitude for MutedScreen,
	// in dB above the injector floor (0 = 9 dB).
	MutedMarkerAmpDB float64
	// ChatStartsAtZero pins the first expected chat sequence number to
	// zero (the simulator's convention) instead of syncing to the first
	// packet seen (the hub's convention for clients joining mid-stream).
	ChatStartsAtZero bool
	// InjectorLogLimit bounds the injector's retained injection log
	// (0 = the default short debugging tail, negative = unlimited). The
	// capture/replay recorder persists this value in the trace header so
	// a replayed session reconstructs identical injector ledger state.
	InjectorLogLimit int
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
	if cfg.MutedMarkerAmpDB == 0 {
		cfg.MutedMarkerAmpDB = 9
	}
	if cfg.InjectorLogLimit == 0 {
		cfg.InjectorLogLimit = injectorLogKeep
	}
	return cfg
}

// Pipeline is one session's server core. It is not safe for concurrent
// use: the host serializes calls (the hub's shard worker, the simulator's
// event loop).
type Pipeline struct {
	cfg Config

	screen    *Stream
	accessory *Stream
	injector  *pn.Injector
	est       *estimator.Streamer
	comp      *compensator.Compensator
	dec       *codec.Decoder

	// Drift regime (nil unless Config.Drift.Enabled): tracker fits the
	// ISD slope across measurements, drift wraps comp with the
	// micro-resampling policy.
	tracker *estimator.DriftTracker
	drift   *compensator.DriftLoop
	// lastDetection is the newest measurement detection time seen;
	// trackerBlankUntil suppresses tracker feeding for measurements
	// detected before the latest correction propagated (Drift.BlankSec,
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

	mutedAmp float64
	mutedPos int

	chatBuf []float64 // decode/conceal scratch
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
		mutedAmp:      pn.MinAmplitude * math.Pow(10, cfg.MutedMarkerAmpDB/20),
	}
	if cfg.InjectorLogLimit > 0 {
		p.injector.SetLogLimit(cfg.InjectorLogLimit)
	}
	if cfg.Drift.Enabled {
		p.tracker = estimator.NewDriftTracker(cfg.DriftTracker)
		p.drift = compensator.NewDriftLoop(cfg.Drift, p.comp)
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
			dst[i] += p.mutedAmp * w[mi]
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

// OfferRecords adds a batch of accessory playback records.
func (p *Pipeline) OfferRecords(rs []Record) {
	for _, r := range rs {
		p.book.Add(r)
	}
}

// OfferChat runs the server's uplink path on one chat packet: resolve
// pending markers against the record book, conceal lost packets so the
// estimator's timeline stays contiguous (or, past maxConcealFrames,
// resync it), drop stale reorders, decode, correct the capture timestamp
// for the codec's lookahead delay, feed the estimator and route any
// resulting compensation.
func (p *Pipeline) OfferChat(seq uint32, adcLocal float64, encoded []byte) {
	p.ledger.Resolve(&p.book, p.est, p.sink)
	p.book.Evict(p.ledger.MinPending())

	lost, fresh := p.seqr.Offer(seq)
	if lost > maxConcealFrames {
		// The audio before the gap can no longer pair with what follows:
		// restart the estimator at this packet's timestamp.
		p.est.Reset()
		p.sink.ChatResync(seq, lost)
		lost = 0
	}
	for i := lost; i > 0; i-- {
		// AddChat copies the samples, so the scratch is safe to reuse.
		p.chatBuf = p.dec.ConcealTo(p.chatBuf[:0])
		p.sink.ChatGapConcealed(seq-uint32(i), p.lastChatEnd)
		p.feedChat(p.chatBuf, p.lastChatEnd)
	}
	if !fresh {
		return // stale duplicate/reorder
	}
	// Decoder output lags capture by one codec hop; correct the stamp.
	startLocal := adcLocal - p.codecDelaySec
	decoded, err := p.dec.DecodeTo(p.chatBuf[:0], encoded)
	if err != nil {
		// A corrupt or hostile frame is concealed like a lost one, and
		// counted the same way.
		decoded = p.dec.ConcealTo(p.chatBuf[:0])
		p.sink.ChatGapConcealed(seq, startLocal)
	}
	p.chatBuf = decoded
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
			p.trackerBlankUntil = p.lastDetection + p.drift.BlankSec()
		}
		if act != nil {
			p.sink.CompensationAction(now, *act)
			p.route(*act)
			p.tracker.Reset()
			p.trackerBlankUntil = p.lastDetection + p.drift.BlankSec()
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

// Apply routes an externally decided compensation action (hosts with
// their own policy, e.g. the multi-screen joint alignment, use the
// component types directly instead).
func (p *Pipeline) Apply(a compensator.Action) { p.route(a) }

// ApplyResample routes an externally decided rate retune.
func (p *Pipeline) ApplyResample(r compensator.Resample) { p.routeResample(r) }

// ResamplePPM reports the rate currently commanded on the accessory
// stream (0 when the drift regime never engaged).
func (p *Pipeline) ResamplePPM() float64 { return p.accessory.ResamplePPM() }

// PendingMarkers reports how many injected markers await a covering
// playback record.
func (p *Pipeline) PendingMarkers() int { return p.ledger.Pending() }

// RecordCount reports how many playback records are retained.
func (p *Pipeline) RecordCount() int { return p.book.Len() }
