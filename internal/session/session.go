// Package session orchestrates the full end-to-end system of §6.1: a cloud
// game server streaming a screen stream (cellular path) and an accessory
// stream (WiFi path) to two simulated devices, with the player's headset
// microphone overhearing the screen playback and shipping timestamped chat
// audio back to the server, where Ekho-Estimator and Ekho-Compensator close
// the synchronization loop.
//
// Everything runs on a single discrete-event scheduler in virtual time, so
// a 5-minute session completes in seconds of wall time. Ground-truth ISD is
// computed from the simulator's omniscient bookkeeping (true playback time
// per content position); the chirp-based methodology the paper uses on real
// hardware is implemented in groundtruth.go and validated against the
// bookkeeping in tests.
//
// Sign convention: ISD = (true time screen content is heard at the mic) −
// (true time the same content plays in the headset). Positive ISD means
// the screen lags and the compensator delays the accessory stream.
package session

import (
	"math"
	"os"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/jitterbuf"
	"ekho/internal/netsim"
	"ekho/internal/pn"
	"ekho/internal/serverpipe"
	"ekho/internal/trace"
	"ekho/internal/vclock"
)

// StreamID distinguishes the two downlinks in scripted events.
type StreamID int

// The two downlink streams.
const (
	Screen StreamID = iota
	Accessory
)

// ScriptedLoss forces the loss of consecutive frames on one downlink at a
// given session time (Figure 9's deterministic events).
type ScriptedLoss struct {
	AtSec  float64
	Stream StreamID
	Frames int
}

// ScriptedThrottle caps a downlink's bandwidth for a period — a cross-
// traffic burst that builds queueing delay (§3.3's network variation).
type ScriptedThrottle struct {
	AtSec        float64
	DurationSec  float64
	Stream       StreamID
	BandwidthBps float64
}

// Scenario configures one end-to-end run.
type Scenario struct {
	Seed        int64
	DurationSec float64
	// EkhoEnabled turns the marker/estimation/compensation loop on.
	EkhoEnabled bool
	// MarkerC is the relative marker volume (default 0.5).
	MarkerC float64
	// ScreenLink / ControllerLink are the downlink configurations.
	ScreenLink     netsim.LinkConfig
	ControllerLink netsim.LinkConfig
	// ControllerUplink carries chat audio to the server.
	ControllerUplink netsim.LinkConfig
	// Jitter buffer thresholds in frames.
	ScreenJitterFrames     int
	ControllerJitterFrames int
	// Extra device playback latencies (TV post-processing etc.), seconds.
	ScreenDeviceLatency     float64
	ControllerDeviceLatency float64
	// Clock offsets of the devices' local clocks vs true time (seconds);
	// Ekho never sees true time, only these local stamps.
	ScreenClockOffset     float64
	ControllerClockOffset float64
	ControllerDriftPPM    float64
	// ScreenSROPPM / ControllerSROPPM are the devices' sample-rate
	// offsets in ppm: the device's DAC/ADC oscillator runs at
	// 48000·(1+ppm·1e-6), so it consumes (and captures) samples at a
	// skewed rate and the ISD becomes a ramp instead of a level
	// (arXiv:2507.05399's multi-device SRO model). Playout ticks fire
	// every frameSec/(1+ppm·1e-6); the controller's microphone captures
	// through a fractional resampler at the same skew. A drifting
	// controller should normally set ControllerDriftPPM to the same
	// value: one crystal drives both the audio oscillator and the local
	// clock.
	ScreenSROPPM     float64
	ControllerSROPPM float64
	// DriftCompensation enables the server's drift regime: a sliding-
	// window slope fit on ISD measurements plus continuous
	// micro-resampling of the accessory stream once drift dominates.
	// Off by default — level-only scenarios stay bit-identical.
	DriftCompensation bool
	// Channel is the acoustic path spec; zero value uses defaults.
	Channel channelSpec
	// ChatProfile encodes the uplink audio (default SWB32).
	ChatProfile codec.Profile
	// ScriptedLosses are deterministic loss events.
	ScriptedLosses []ScriptedLoss
	// ScriptedThrottles are deterministic bandwidth caps.
	ScriptedThrottles []ScriptedThrottle
	// ClipIndex selects the looping game clip from the corpus.
	ClipIndex int
	// InterpolatedInsert synthesizes inserted delay from the surrounding
	// audio (PLC-style, §4.4 future work) instead of hard silence.
	InterpolatedInsert bool
	// WarmupIgnoreSec excludes the startup transient from summary stats
	// (the paper ignores the first 5 s).
	WarmupIgnoreSec float64
	// WalkToFt, when positive, moves the player linearly from the
	// channel's starting distance to this distance over the session —
	// the sound-propagation component of ISD then drifts slowly (§3.3's
	// low-frequency variation class, ~1 ms per foot).
	WalkToFt float64
	// HapticsEnabled generates controller rumble events anchored to game
	// content and reports their skew to the screen playback.
	HapticsEnabled bool
	// MutedScreen enables the §6.5 mode: the screen audio is silenced and
	// markers are sent at a constant faint amplitude (9 dB above the
	// injector floor; the paper suggests 6-15 dB) instead of tracking the
	// (absent) game audio. Video-to-audio sync still converges.
	MutedScreen bool
	// Provider, when non-empty, selects a named provider-shaped network
	// profile (netsim.ProviderByName: "stadia", "gfn", "psnow") and
	// overrides ScreenLink, ControllerLink and ControllerUplink with its
	// measured delay/jitter/loss shapes. Unknown names panic: a scenario
	// asking for a profile that does not exist is a programming error.
	Provider string
	// RecordPath, when non-empty, captures the server pipeline's full
	// timeline to a trace log for deterministic replay (cmd/ekho-replay).
	RecordPath string
}

// DefaultScenario mirrors the paper's testbed: screen on cellular with a
// TV-like playback latency, controller on campus WiFi.
func DefaultScenario() Scenario {
	return Scenario{
		Seed:                    1,
		DurationSec:             120,
		EkhoEnabled:             true,
		MarkerC:                 pn.DefaultC,
		ScreenLink:              netsim.Cellular,
		ControllerLink:          netsim.WiFi,
		ControllerUplink:        netsim.Asymmetric(netsim.WiFi, 0.010, 777),
		ScreenJitterFrames:      4,
		ControllerJitterFrames:  2,
		ScreenDeviceLatency:     0.060,
		ControllerDeviceLatency: 0.002,
		ScreenClockOffset:       3.7,
		ControllerClockOffset:   -2.2,
		ControllerDriftPPM:      25,
		Channel:                 defaultChannelSpec(),
		ChatProfile:             codec.SWB32,
		ClipIndex:               0,
		WarmupIgnoreSec:         5,
	}
}

// DriftScenario is the default scenario with a controller sample-rate
// offset of sroPPM and the server's drift-compensation regime enabled.
// The controller's local clock drifts at the same rate as its audio
// oscillator — one crystal drives both — so ControllerDriftPPM tracks
// the SRO instead of the default 25 ppm.
func DriftScenario(sroPPM float64) Scenario {
	sc := DefaultScenario()
	sc.ControllerSROPPM = sroPPM
	sc.ControllerDriftPPM = sroPPM
	sc.DriftCompensation = true
	return sc
}

// ISDPoint is one ground-truth ISD observation.
type ISDPoint struct {
	TimeSec    float64
	ISDSeconds float64
}

// ActionRecord logs one compensation action.
type ActionRecord struct {
	TimeSec float64
	Action  compensator.Action
}

// MeasurementRecord logs one Ekho ISD measurement at the server. TimeSec
// is when the server made it; the marker it measures was heard at HeardSec
// (true time), a detection latency earlier.
type MeasurementRecord struct {
	TimeSec    float64
	ISDSeconds float64
	HeardSec   float64
}

// ResampleRecord logs one micro-resampling rate retune (drift regime).
type ResampleRecord struct {
	TimeSec  float64
	Resample compensator.Resample
}

// Result carries everything a session produced.
type Result struct {
	Trace        []ISDPoint
	Measurements []MeasurementRecord
	Actions      []ActionRecord
	// Resamples logs the drift regime's rate retunes (empty unless
	// Scenario.DriftCompensation).
	Resamples  []ResampleRecord
	ScreenLoss netsim.Stats
	AccessLoss netsim.Stats
	// Haptics holds the fired rumble events and their skew to the screen
	// (empty unless Scenario.HapticsEnabled).
	Haptics []HapticRecord
	// InSyncFraction is the share of post-warmup trace points with
	// |ISD| <= 10 ms.
	InSyncFraction float64
}

// frame is the downlink payload: 20 ms of PCM plus content bookkeeping.
type frame struct {
	seq          int
	contentStart int // content sample index of the first content sample; -1 = all silence
	contentOff   int // in-frame offset where content begins
	samples      []float64
}

// chatPacket is the uplink payload.
type chatPacket struct {
	seq     int
	encoded []byte
	// adcLocal is the controller-local capture time of the first sample.
	adcLocal float64
	// playbackLog piggybacks recent accessory playback records.
	playbackLog []playbackRecord
}

// playbackRecord reports that accessory content [contentStart, +n) started
// playing at the given controller-local time.
type playbackRecord struct {
	contentStart int
	n            int
	localTime    float64
}

const frameSec = 0.02

// Run executes the scenario and returns its result.
func Run(sc Scenario) *Result {
	if sc.MarkerC == 0 {
		sc.MarkerC = pn.DefaultC
	}
	if sc.ChatProfile.Name == "" {
		sc.ChatProfile = codec.SWB32
	}
	if sc.Channel == (channelSpec{}) {
		sc.Channel = defaultChannelSpec()
	}
	if sc.Provider != "" {
		p, ok := netsim.ProviderByName(sc.Provider)
		if !ok {
			panic("session: unknown provider profile " + sc.Provider)
		}
		sc.ScreenLink = p.Down
		sc.ControllerLink = p.Down
		sc.ControllerUplink = p.Up
	}
	s := &sim{sc: sc}
	s.setup()
	s.run()
	return s.finish()
}

// contentRecord is a (content range → true/local time) bookkeeping entry.
type contentRecord struct {
	contentStart int
	n            int
	time         float64 // true time (ground truth) or local time (uplink)
}

type sim struct {
	sc    Scenario
	sched *vclock.Scheduler

	game *audio.Buffer // looping game audio

	// Server side: the shared per-session pipeline, driven from the
	// discrete-event scheduler (the same core the hub hosts on sockets).
	pnSeq *pn.Sequence
	pipe  *serverpipe.Pipeline

	// Optional capture of the pipeline timeline (Scenario.RecordPath).
	rec     *trace.Recorder
	recFile *os.File

	// Links.
	screenDown *netsim.Link
	accessDown *netsim.Link
	chatUp     *netsim.Link

	// Devices.
	screenBuf *jitterbuf.Buffer
	accessBuf *jitterbuf.Buffer
	screenClk *vclock.Clock
	accessClk *vclock.Clock
	air       *airChannel
	chatEnc   *codec.Encoder
	chatSeq   int
	pendLog   []playbackRecord

	// Ground truth bookkeeping (true times).
	heardRecs  []contentRecord // screen content heard at mic
	playedRecs []contentRecord // accessory content played

	trace        []ISDPoint
	measurements []MeasurementRecord
	actions      []ActionRecord
	resamples    []ResampleRecord
	haptics      *hapticTracker
}

func (s *sim) setup() {
	sc := s.sc
	s.sched = vclock.NewScheduler()
	s.game = gamesynth.Generate(gamesynth.Catalog()[sc.ClipIndex%30], gamesynth.ClipSeconds)

	s.pnSeq = pn.NewSequence(4242, pn.DefaultLength)
	cfg := serverpipe.Config{
		Game:               s.game,
		Seq:                s.pnSeq,
		MarkerC:            sc.MarkerC,
		Codec:              sc.ChatProfile,
		Drift:              sc.DriftCompensation,
		Now:                func() float64 { return float64(s.sched.Now()) },
		Sink:               s,
		DisableMarkers:     !sc.EkhoEnabled,
		InterpolatedInsert: sc.InterpolatedInsert,
		MutedScreen:        sc.MutedScreen,
		ChatStartsAtZero:   true,
	}
	s.pipe = serverpipe.New(cfg)
	if sc.RecordPath != "" {
		f, err := os.Create(sc.RecordPath)
		if err != nil {
			panic("session: record: " + err.Error())
		}
		rec, err := trace.NewRecorder(f, trace.HeaderFor(0, sc.ClipIndex, 4242, cfg))
		if err != nil {
			f.Close()
			panic("session: record: " + err.Error())
		}
		s.recFile, s.rec = f, rec
	}
	s.chatEnc = codec.NewEncoder(sc.ChatProfile)

	s.screenClk = &vclock.Clock{Offset: sc.ScreenClockOffset}
	s.accessClk = &vclock.Clock{Offset: sc.ControllerClockOffset, DriftPPM: sc.ControllerDriftPPM}
	s.air = newAirChannel(sc.Channel)

	s.screenBuf = jitterbuf.New(sc.ScreenJitterFrames)
	s.accessBuf = jitterbuf.New(sc.ControllerJitterFrames)
	if sc.HapticsEnabled {
		s.haptics = &hapticTracker{
			pending: generateHaptics(sc.Seed+500, int(sc.DurationSec*audio.SampleRate)),
		}
	}

	sl := sc.ScreenLink
	sl.Seed += sc.Seed * 101
	al := sc.ControllerLink
	al.Seed += sc.Seed * 103
	ul := sc.ControllerUplink
	ul.Seed += sc.Seed * 107
	s.screenDown = netsim.NewLink(sl, s.sched, s.onScreenPacket)
	s.accessDown = netsim.NewLink(al, s.sched, s.onAccessPacket)
	s.chatUp = netsim.NewLink(ul, s.sched, s.onChatPacket)

	for _, ev := range sc.ScriptedLosses {
		ev := ev
		s.sched.At(vclock.Time(ev.AtSec), func() {
			switch ev.Stream {
			case Screen:
				s.screenDown.ForceDrop(ev.Frames)
			default:
				s.accessDown.ForceDrop(ev.Frames)
			}
		})
	}
	for _, ev := range sc.ScriptedThrottles {
		ev := ev
		link := s.accessDown
		if ev.Stream == Screen {
			link = s.screenDown
		}
		s.sched.At(vclock.Time(ev.AtSec), func() { link.SetBandwidth(ev.BandwidthBps) })
		s.sched.At(vclock.Time(ev.AtSec+ev.DurationSec), func() { link.SetBandwidth(0) })
	}
}

func (s *sim) run() {
	end := vclock.Time(s.sc.DurationSec)
	tick := func(start vclock.Time, period float64, fn func()) {
		var loop func()
		loop = func() {
			if s.sched.Now() >= end {
				return
			}
			fn()
			s.sched.After(period, loop)
		}
		s.sched.At(start, loop)
	}
	// A device with a sample-rate offset drains its 960-sample frames in
	// 20 ms of *its* oscillator's time: its playout/capture ticks fire
	// every frameSec/(1+ppm·1e-6) of true time. With zero SRO the period
	// is exactly frameSec, preserving the pre-drift schedule bit for bit.
	screenPeriod := frameSec / (1 + s.sc.ScreenSROPPM*1e-6)
	ctrlPeriod := frameSec / (1 + s.sc.ControllerSROPPM*1e-6)
	tick(0, frameSec, s.serverProduce)
	tick(0.011, screenPeriod, s.screenPlayout)
	tick(0.013, ctrlPeriod, s.accessPlayout)
	tick(0.017, ctrlPeriod, s.captureMic)
	s.sched.RunUntil(end + 1)
}

// serverProduce generates one frame for each stream through the shared
// pipeline (compensation edits + marker injection) and transmits both.
// Fresh buffers each tick: the simulated network retains the payloads.
func (s *sim) serverProduce() {
	if s.rec != nil {
		s.rec.Tick(s.pipe.Now())
	}
	scSamples := make([]float64, audio.FrameSamples)
	scf := s.pipe.NextScreenFrame(scSamples)
	acSamples := make([]float64, audio.FrameSamples)
	acf := s.pipe.NextAccessoryFrame(acSamples)
	s.screenDown.Send(frame{seq: int(scf.Seq), contentStart: int(scf.ContentStart), contentOff: scf.ContentOff, samples: scSamples})
	s.accessDown.Send(frame{seq: int(acf.Seq), contentStart: int(acf.ContentStart), contentOff: acf.ContentOff, samples: acSamples})
	if s.rec != nil {
		s.rec.MediaOut(trace.StreamScreen, scf, 0)
		s.rec.MediaOut(trace.StreamAccessory, acf, 0)
	}
}

func (s *sim) onScreenPacket(p netsim.Packet) {
	f := p.Payload.(frame)
	s.screenBuf.Push(jitterbuf.Frame{Seq: f.seq, Samples: packFrame(f)})
}

func (s *sim) onAccessPacket(p netsim.Packet) {
	f := p.Payload.(frame)
	s.accessBuf.Push(jitterbuf.Frame{Seq: f.seq, Samples: packFrame(f)})
}

// packFrame/unpackFrame smuggle content bookkeeping through the jitter
// buffer (which carries []float64): two trailing sentinel values.
func packFrame(f frame) []float64 {
	out := make([]float64, len(f.samples)+2)
	copy(out, f.samples)
	out[len(f.samples)] = float64(f.contentStart)
	out[len(f.samples)+1] = float64(f.contentOff)
	return out
}

func unpackFrame(s []float64) (samples []float64, contentStart, contentOff int) {
	if len(s) < 2 {
		return nil, -1, 0
	}
	return s[:len(s)-2], int(s[len(s)-2]), int(s[len(s)-1])
}

// screenPlayout pops one frame from the screen jitter buffer and plays it
// through the speaker into the air channel. A screen sample-rate offset
// is modeled by the skewed tick period alone: each frame's start lands at
// the drifted true time (the effect that accumulates, ~sro µs/s), while
// the 960 samples within it are written at the nominal rate — the
// within-frame stretch is sro·1e-6·20 ms ≈ nanoseconds, far below the
// channel's own one-sample placement quantization.
func (s *sim) screenPlayout() {
	raw, ev := s.screenBuf.Pop()
	if ev == jitterbuf.Waiting {
		return
	}
	if s.sc.WalkToFt > 0 {
		frac := float64(s.sched.Now()) / s.sc.DurationSec
		if frac > 1 {
			frac = 1
		}
		ft := s.sc.Channel.DistanceFt + (s.sc.WalkToFt-s.sc.Channel.DistanceFt)*frac
		s.air.setDistanceFt(ft)
	}
	samples, content, off := unpackFrame(raw)
	playTime := float64(s.sched.Now()) + s.sc.ScreenDeviceLatency
	playSample := int(math.Round(playTime * audio.SampleRate))
	s.air.play(playSample, samples)
	if content >= 0 {
		heardAt := playTime + (float64(off)+float64(s.air.propSamples))/audio.SampleRate
		rec := contentRecord{contentStart: content, n: len(samples) - off, time: heardAt}
		s.heardRecs = append(s.heardRecs, rec)
		s.matchTrace(rec, s.playedRecs)
		if s.haptics != nil {
			s.haptics.onScreenHeard(content, len(samples)-off, heardAt)
		}
	}
}

// accessPlayout pops one frame from the accessory jitter buffer, plays it
// to the headset and logs the playback record for the uplink.
func (s *sim) accessPlayout() {
	raw, ev := s.accessBuf.Pop()
	if ev == jitterbuf.Waiting {
		return
	}
	samples, content, off := unpackFrame(raw)
	offSec := float64(off) / audio.SampleRate
	if sro := s.sc.ControllerSROPPM; sro != 0 {
		// The headset DAC drains samples at 48000·(1+sro·1e-6): reaching
		// in-frame offset off takes off/(48000·(1+sro·1e-6)) of true time.
		offSec = float64(off) / (audio.SampleRate * (1 + sro*1e-6))
	}
	playTrue := float64(s.sched.Now()) + s.sc.ControllerDeviceLatency + offSec
	if content >= 0 {
		n := len(samples) - off
		rec := contentRecord{contentStart: content, n: n, time: playTrue}
		s.playedRecs = append(s.playedRecs, rec)
		local := float64(s.accessClk.Local(vclock.Time(playTrue)))
		s.pendLog = append(s.pendLog, playbackRecord{contentStart: content, n: n, localTime: local})
		s.matchTraceReverse(rec, s.heardRecs)
		if s.haptics != nil {
			s.haptics.onAccessoryPlay(content, n, playTrue)
		}
	}
}

// captureMic reads 20 ms of ADC time from the air channel, encodes it and
// uplinks it. With a controller sample-rate offset, the ADC consumes
// 1/(1+sro·1e-6) true-rate air samples per ADC sample, so the frame is
// read through the channel's fractional-capture path; the zero-SRO path
// is the original integer capture, bit for bit.
func (s *sim) captureMic() {
	now := float64(s.sched.Now())
	var samples []float64
	var adcTrue float64
	if sro := s.sc.ControllerSROPPM; sro != 0 {
		step := 1 / (1 + sro*1e-6)
		endPos := now * audio.SampleRate
		startPos := endPos - float64(audio.FrameSamples)*step
		if startPos < 0 {
			return
		}
		samples = s.air.captureFrac(startPos, step, audio.FrameSamples)
		adcTrue = startPos / audio.SampleRate
	} else {
		to := int(math.Round(now * audio.SampleRate))
		from := to - audio.FrameSamples
		if from < 0 {
			return
		}
		samples = s.air.capture(from, to)
		adcTrue = float64(from) / audio.SampleRate
	}
	pkt, err := s.chatEnc.Encode(samples)
	if err != nil {
		panic("session: chat encode: " + err.Error())
	}
	adcLocal := float64(s.accessClk.StampADC(vclock.Time(adcTrue)))
	cp := chatPacket{seq: s.chatSeq, encoded: pkt, adcLocal: adcLocal, playbackLog: s.pendLog}
	s.chatSeq++
	s.pendLog = nil
	s.chatUp.Send(cp)
}

// onChatPacket is the server-side uplink handler: it deserializes the
// simulated packet into the shared pipeline (records first, then audio).
func (s *sim) onChatPacket(p netsim.Packet) {
	if !s.sc.EkhoEnabled {
		return
	}
	cp := p.Payload.(chatPacket)
	for _, r := range cp.playbackLog {
		rec := serverpipe.Record{ContentStart: int64(r.contentStart), N: r.n, LocalTime: r.localTime}
		if s.rec != nil {
			s.rec.OfferRecord(s.pipe.Now(), rec)
		}
		s.pipe.OfferRecord(rec)
	}
	if s.rec != nil {
		s.rec.OfferChat(s.pipe.Now(), uint32(cp.seq), cp.adcLocal, cp.encoded)
	}
	s.pipe.OfferChat(uint32(cp.seq), cp.adcLocal, cp.encoded)
}

// The sim is its pipeline's EventSink: measurements and actions land in
// the result log with virtual-time stamps.

// MarkerInjected implements serverpipe.EventSink.
func (s *sim) MarkerInjected(content int64) {
	if s.rec != nil {
		s.rec.MarkerInjected(content)
	}
}

// MarkerMatched implements serverpipe.EventSink.
func (s *sim) MarkerMatched(content int64, localTime float64) {
	if s.rec != nil {
		s.rec.MarkerMatched(content, localTime)
	}
}

// MarkerExpired implements serverpipe.EventSink.
func (s *sim) MarkerExpired(content int64) {
	if s.rec != nil {
		s.rec.MarkerExpired(content)
	}
}

// ChatGapConcealed implements serverpipe.EventSink.
func (s *sim) ChatGapConcealed(seq uint32, startLocal float64) {
	if s.rec != nil {
		s.rec.ChatGapConcealed(seq, startLocal)
	}
}

// ChatResync implements serverpipe.EventSink.
func (s *sim) ChatResync(uint32, int) {}

// ISDMeasurement implements serverpipe.EventSink.
func (s *sim) ISDMeasurement(now float64, m estimator.Measurement) {
	heard := float64(s.accessClk.TrueTime(vclock.Time(m.DetectionTime)))
	s.measurements = append(s.measurements, MeasurementRecord{TimeSec: now, ISDSeconds: m.ISDSeconds, HeardSec: heard})
	if s.rec != nil {
		s.rec.ISDMeasurement(now, m)
	}
}

// CompensationAction implements serverpipe.EventSink.
func (s *sim) CompensationAction(now float64, a compensator.Action) {
	s.actions = append(s.actions, ActionRecord{TimeSec: now, Action: a})
	if s.rec != nil {
		s.rec.CompensationAction(now, a)
	}
}

// ResampleApplied implements serverpipe.EventSink.
func (s *sim) ResampleApplied(now float64, r compensator.Resample) {
	s.resamples = append(s.resamples, ResampleRecord{TimeSec: now, Resample: r})
	if s.rec != nil {
		s.rec.ResampleApplied(now, r)
	}
}

// matchTrace emits a ground-truth ISD point when a newly heard screen
// record overlaps an already-played accessory record.
func (s *sim) matchTrace(h contentRecord, played []contentRecord) {
	for _, p := range played {
		if s.emitOverlap(h, p) {
			break
		}
	}
	s.pruneRecs()
}

// matchTraceReverse is the mirror: a newly played accessory record paired
// against already-heard screen records (the screen-leads case).
func (s *sim) matchTraceReverse(p contentRecord, heard []contentRecord) {
	for _, h := range heard {
		if s.emitOverlap(h, p) {
			break
		}
	}
	s.pruneRecs()
}

// emitOverlap emits one ISD point if the records share content.
func (s *sim) emitOverlap(h, p contentRecord) bool {
	lo := max(h.contentStart, p.contentStart)
	hi := min(h.contentStart+h.n, p.contentStart+p.n)
	if lo >= hi {
		return false
	}
	heardAt := h.time + float64(lo-h.contentStart)/audio.SampleRate
	playedAt := p.time + float64(lo-p.contentStart)/audio.SampleRate
	s.trace = append(s.trace, ISDPoint{
		TimeSec:    float64(s.sched.Now()),
		ISDSeconds: heardAt - playedAt,
	})
	return true
}

// pruneRecs bounds the bookkeeping windows: ~1.2 s of heard records and
// ~2.4 s of played records cover any plausible ISD.
func (s *sim) pruneRecs() {
	if len(s.heardRecs) > 60 {
		s.heardRecs = append([]contentRecord(nil), s.heardRecs[len(s.heardRecs)-60:]...)
	}
	if len(s.playedRecs) > 120 {
		s.playedRecs = append([]contentRecord(nil), s.playedRecs[len(s.playedRecs)-120:]...)
	}
}

func (s *sim) finish() *Result {
	if s.rec != nil {
		if err := s.rec.Close(); err != nil {
			panic("session: record: " + err.Error())
		}
		if err := s.recFile.Close(); err != nil {
			panic("session: record: " + err.Error())
		}
		s.rec, s.recFile = nil, nil
	}
	res := &Result{
		Trace:        s.trace,
		Measurements: s.measurements,
		Actions:      s.actions,
		Resamples:    s.resamples,
		ScreenLoss:   s.screenDown.Stats(),
		AccessLoss:   s.accessDown.Stats(),
	}
	if s.haptics != nil {
		res.Haptics = s.haptics.fired
	}
	inSync, total := 0, 0
	for _, p := range res.Trace {
		if p.TimeSec < s.sc.WarmupIgnoreSec {
			continue
		}
		total++
		if math.Abs(p.ISDSeconds) <= 0.010 {
			inSync++
		}
	}
	if total > 0 {
		res.InSyncFraction = float64(inSync) / float64(total)
	}
	return res
}
