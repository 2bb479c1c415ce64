package session

import (
	"math"

	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/jitterbuf"
	"ekho/internal/netsim"
	"ekho/internal/pn"
	"ekho/internal/serverpipe"
	"ekho/internal/vclock"
)

// Multi-endpoint synchronization: Figure 1 of the paper shows *screens*
// plural (a TV and a PC both playing the screen stream), and the
// conclusion notes Ekho generalizes beyond a single pair. This file
// extends the simulated session to N screen devices: each screen's stream
// carries markers from its own PN seed (different seeds are nearly
// orthogonal, so one chat uplink feeds one estimator per screen), and a
// joint compensation policy aligns everything to the slowest device:
//
//	T = max_i ISD_i            (the worst screen lag)
//	delay accessory by  max(T, 0)
//	delay screen i by   max(T, 0) − ISD_i
//
// which drives every pairwise delay to zero with insert-only actions.

// MultiScenario configures an N-screen end-to-end run.
type MultiScenario struct {
	Seed        int64
	DurationSec float64
	// Screens describes each screen device's path and acoustics.
	Screens []ScreenSpec
	// ControllerLink / ControllerUplink are as in Scenario.
	ControllerLink         netsim.LinkConfig
	ControllerUplink       netsim.LinkConfig
	ControllerJitterFrames int
	MarkerC                float64
	ClipIndex              int
	WarmupIgnoreSec        float64
}

// ScreenSpec is one screen endpoint.
type ScreenSpec struct {
	// Link is the downlink to this screen.
	Link netsim.LinkConfig
	// JitterFrames is the device's buffer threshold.
	JitterFrames int
	// DeviceLatency is the playback pipeline lag (TV post-processing).
	DeviceLatency float64
	// DistanceFt is the speaker-to-player distance.
	DistanceFt float64
	// Attenuation is the overheard gain at the microphone.
	Attenuation float64
	// MarkerSeed is this screen's PN seed (must differ across screens).
	MarkerSeed int64
}

// DefaultMultiScenario: a slow cellular TV and a faster WiFi PC screen.
func DefaultMultiScenario() MultiScenario {
	return MultiScenario{
		Seed:        1,
		DurationSec: 60,
		Screens: []ScreenSpec{
			{Link: netsim.Cellular, JitterFrames: 4, DeviceLatency: 0.060, DistanceFt: 6, Attenuation: 0.1, MarkerSeed: 4242},
			{Link: netsim.WiFi, JitterFrames: 3, DeviceLatency: 0.015, DistanceFt: 3, Attenuation: 0.08, MarkerSeed: 9191},
		},
		ControllerLink:         netsim.WiFi,
		ControllerUplink:       netsim.Asymmetric(netsim.WiFi, 0.010, 777),
		ControllerJitterFrames: 2,
		MarkerC:                pn.DefaultC,
		WarmupIgnoreSec:        8,
	}
}

// MultiResult carries per-screen traces and the joint actions.
type MultiResult struct {
	// Traces[i] is the ground-truth ISD trace of screen i vs the
	// accessory stream.
	Traces [][]ISDPoint
	// Actions counts joint compensation rounds.
	Actions int
	// InSyncFractions[i] is the post-warmup share of |ISD_i| <= 10 ms.
	InSyncFractions []float64
}

// RunMulti executes the multi-screen scenario.
func RunMulti(sc MultiScenario) *MultiResult {
	if sc.MarkerC == 0 {
		sc.MarkerC = pn.DefaultC
	}
	m := &multiSim{sc: sc}
	m.setup()
	m.run()
	return m.finish()
}

// multiScreen is the per-screen simulation state. Stream scheduling and
// the pending-marker ledger are the shared serverpipe components; the
// joint compensation policy below is what stays multi-specific.
type multiScreen struct {
	spec     ScreenSpec
	seq      *pn.Sequence
	injector *pn.Injector
	stream   *serverpipe.Stream
	link     *netsim.Link
	buf      *jitterbuf.Buffer
	air      *airChannel
	est      *estimator.Streamer
	ledger   serverpipe.MarkerLedger // markers awaiting playback records

	heard   []contentRecord
	trace   []ISDPoint
	lastISD float64
	prevISD float64
	nISD    int // measurements since the last action
}

type multiSim struct {
	sc    MultiScenario
	sched *vclock.Scheduler
	game  *audio.Buffer

	screens []*multiScreen

	accessStream *serverpipe.Stream
	accessLink   *netsim.Link
	accessBuf    *jitterbuf.Buffer
	accessClk    *vclock.Clock
	chatUp       *netsim.Link
	seqr         serverpipe.ChatSequencer
	book         serverpipe.RecordBook
	played       []contentRecord
	pendLog      []playbackRecord
	chatSeq      int
	gapBuf       []float64 // stays all-zero; AddChat copies it

	settleUntil float64
	actions     int
}

func (m *multiSim) setup() {
	sc := m.sc
	m.sched = vclock.NewScheduler()
	m.game = gamesynth.Generate(gamesynth.Catalog()[sc.ClipIndex%30], gamesynth.ClipSeconds)
	m.accessStream = serverpipe.NewStream(m.game)
	m.accessBuf = jitterbuf.New(sc.ControllerJitterFrames)
	m.accessClk = &vclock.Clock{Offset: -1.5, DriftPPM: 20}

	for i, spec := range sc.Screens {
		s := &multiScreen{spec: spec}
		s.seq = pn.NewSequence(spec.MarkerSeed, pn.DefaultLength)
		s.injector = pn.NewInjector(s.seq, sc.MarkerC)
		s.stream = serverpipe.NewStream(m.game)
		s.buf = jitterbuf.New(spec.JitterFrames)
		s.air = newAirChannel(channelSpec{
			Mic:          0, // StudioMic-equivalent; coloration shared via spec below
			DistanceFt:   spec.DistanceFt,
			Attenuation:  spec.Attenuation,
			AmbientLevel: 0,
			EchoTaps:     4,
			Seed:         sc.Seed + int64(100*i),
		})
		s.est = estimator.NewStreamer(estimator.Config{Seq: s.seq})
		link := spec.Link
		link.Seed += sc.Seed*101 + int64(i)
		idx := i
		s.link = netsim.NewLink(link, m.sched, func(p netsim.Packet) { m.onScreenPacket(idx, p) })
		m.screens = append(m.screens, s)
	}
	al := sc.ControllerLink
	al.Seed += sc.Seed * 103
	m.accessLink = netsim.NewLink(al, m.sched, m.onAccessPacket)
	ul := sc.ControllerUplink
	ul.Seed += sc.Seed * 107
	m.chatUp = netsim.NewLink(ul, m.sched, m.onChatPacket)
	m.gapBuf = make([]float64, audio.FrameSamples)
	m.settleUntil = math.Inf(-1)
}

func (m *multiSim) run() {
	end := vclock.Time(m.sc.DurationSec)
	tick := func(start vclock.Time, fn func()) {
		var loop func()
		loop = func() {
			if m.sched.Now() >= end {
				return
			}
			fn()
			m.sched.After(frameSec, loop)
		}
		m.sched.At(start, loop)
	}
	tick(0, m.produce)
	for i := range m.screens {
		i := i
		tick(vclock.Time(0.011+0.001*float64(i)), func() { m.screenPlayout(i) })
	}
	tick(0.015, m.accessPlayout)
	tick(0.017, m.captureMic)
	m.sched.RunUntil(end + 1)
}

// produce emits one frame per stream (all screens + accessory). Buffers
// are fresh per frame because netsim retains the payload until delivery.
func (m *multiSim) produce() {
	for _, s := range m.screens {
		samples := make([]float64, audio.FrameSamples)
		fi := s.stream.Next(samples)
		pre := s.injector.InjectionCount()
		s.injector.ProcessFrame(samples)
		if s.injector.InjectionCount() > pre {
			mc := fi.ContentStart
			if mc < 0 {
				mc = s.stream.NextContent()
			}
			s.ledger.Add(mc)
		}
		s.link.Send(frame{seq: int(fi.Seq), contentStart: int(fi.ContentStart), contentOff: fi.ContentOff, samples: samples})
	}
	samples := make([]float64, audio.FrameSamples)
	fi := m.accessStream.Next(samples)
	m.accessLink.Send(frame{seq: int(fi.Seq), contentStart: int(fi.ContentStart), contentOff: fi.ContentOff, samples: samples})
}

func (m *multiSim) onScreenPacket(i int, p netsim.Packet) {
	f := p.Payload.(frame)
	m.screens[i].buf.Push(jitterbuf.Frame{Seq: f.seq, Samples: packFrame(f)})
}

func (m *multiSim) onAccessPacket(p netsim.Packet) {
	f := p.Payload.(frame)
	m.accessBuf.Push(jitterbuf.Frame{Seq: f.seq, Samples: packFrame(f)})
}

func (m *multiSim) screenPlayout(i int) {
	s := m.screens[i]
	raw, ev := s.buf.Pop()
	if ev == jitterbuf.Waiting {
		return
	}
	samples, content, off := unpackFrame(raw)
	playTime := float64(m.sched.Now()) + s.spec.DeviceLatency
	s.air.play(int(math.Round(playTime*audio.SampleRate)), samples)
	if content >= 0 {
		heardAt := playTime + (float64(off)+float64(s.air.propSamples))/audio.SampleRate
		rec := contentRecord{contentStart: content, n: len(samples) - off, time: heardAt}
		s.heard = append(s.heard, rec)
		if len(s.heard) > 120 {
			s.heard = append([]contentRecord(nil), s.heard[len(s.heard)-120:]...)
		}
		m.emitTrace(i, rec)
	}
}

// emitTrace pairs a newly heard screen record against already-played
// accessory records; emitTraceFromPlay covers the opposite arrival order.
func (m *multiSim) emitTrace(i int, h contentRecord) {
	for _, p := range m.played {
		if m.emitPair(i, h, p) {
			return
		}
	}
}

// emitTraceFromPlay pairs a newly played accessory record against each
// screen's already-heard records (the screen-leads case after convergence).
func (m *multiSim) emitTraceFromPlay(p contentRecord) {
	for i, s := range m.screens {
		for _, h := range s.heard {
			if m.emitPair(i, h, p) {
				break
			}
		}
	}
}

// emitPair emits one ISD point if the records share content.
func (m *multiSim) emitPair(i int, h, p contentRecord) bool {
	lo := max(h.contentStart, p.contentStart)
	hi := min(h.contentStart+h.n, p.contentStart+p.n)
	if lo >= hi {
		return false
	}
	heardAt := h.time + float64(lo-h.contentStart)/audio.SampleRate
	playedAt := p.time + float64(lo-p.contentStart)/audio.SampleRate
	m.screens[i].trace = append(m.screens[i].trace, ISDPoint{
		TimeSec:    float64(m.sched.Now()),
		ISDSeconds: heardAt - playedAt,
	})
	return true
}

func (m *multiSim) accessPlayout() {
	raw, ev := m.accessBuf.Pop()
	if ev == jitterbuf.Waiting {
		return
	}
	samples, content, off := unpackFrame(raw)
	playTrue := float64(m.sched.Now()) + 0.002 + float64(off)/audio.SampleRate
	if content >= 0 {
		n := len(samples) - off
		rec := contentRecord{contentStart: content, n: n, time: playTrue}
		m.played = append(m.played, rec)
		if len(m.played) > 150 {
			m.played = append([]contentRecord(nil), m.played[len(m.played)-150:]...)
		}
		local := float64(m.accessClk.Local(vclock.Time(playTrue)))
		m.pendLog = append(m.pendLog, playbackRecord{contentStart: content, n: n, localTime: local})
		m.emitTraceFromPlay(rec)
	}
}

// captureMic sums every screen's air at the mic and uplinks the window.
func (m *multiSim) captureMic() {
	now := float64(m.sched.Now())
	to := int(math.Round(now * audio.SampleRate))
	from := to - audio.FrameSamples
	if from < 0 {
		return
	}
	sum := make([]float64, audio.FrameSamples)
	for _, s := range m.screens {
		for i, v := range s.air.capture(from, to) {
			sum[i] += v
		}
	}
	adcLocal := float64(m.accessClk.StampADC(vclock.Time(float64(from) / audio.SampleRate)))
	cp := chatPacket{seq: m.chatSeq, adcLocal: adcLocal, playbackLog: m.pendLog}
	m.chatSeq++
	m.pendLog = nil
	// Raw PCM uplink: the two-device session already exercises lossy
	// compression on this path.
	m.chatUp.Send(multiChat{pkt: cp, samples: sum})
}

type multiChat struct {
	pkt     chatPacket
	samples []float64
}

func (m *multiSim) onChatPacket(p netsim.Packet) {
	mc := p.Payload.(multiChat)
	for _, r := range mc.pkt.playbackLog {
		m.book.Add(serverpipe.Record{ContentStart: int64(r.contentStart), N: r.n, LocalTime: r.localTime})
	}
	now := float64(m.sched.Now())
	// Uplink loss: keep every estimator's timeline contiguous by filling
	// the gap with silence (a slipped timeline biases all subsequent
	// measurements by the lost duration).
	lost, fresh := m.seqr.Offer(uint32(mc.pkt.seq))
	if !fresh {
		return // stale duplicate/reorder
	}
	for i := lost; i > 0; i-- {
		gapStart := mc.pkt.adcLocal - float64(i)*frameSec
		for _, s := range m.screens {
			s.est.AddChat(m.gapBuf, gapStart)
		}
	}
	for _, s := range m.screens {
		// Resolve pending marker content to accessory local times.
		s.ledger.Resolve(&m.book, s.est, serverpipe.NopSink{})

		// Feed the shared chat audio to this screen's estimator.
		for _, meas := range s.est.AddChat(mc.samples, mc.pkt.adcLocal) {
			s.prevISD = s.lastISD
			s.lastISD = meas.ISDSeconds
			s.nISD++
		}
	}
	// One shared record book serves every screen's ledger: evict only
	// below the lowest pending marker across all screens.
	minPending := int64(math.MaxInt64)
	for _, s := range m.screens {
		if p := s.ledger.MinPending(); p < minPending {
			minPending = p
		}
	}
	m.book.Evict(minPending)
	m.maybeCompensate(now)
}

// maybeCompensate applies the joint align-to-slowest policy once every
// screen has a fresh measurement and the settle window has passed.
func (m *multiSim) maybeCompensate(now float64) {
	if now < m.settleUntil {
		return
	}
	worst := math.Inf(-1)
	for _, s := range m.screens {
		// Require two consistent measurements since the last action so a
		// single jitter-wobble outlier cannot trigger a wrong correction.
		if s.nISD < 2 || math.Abs(s.lastISD-s.prevISD) > 0.005 {
			return
		}
		if s.lastISD > worst {
			worst = s.lastISD
		}
	}
	target := math.Max(worst, 0)
	// Quantize the joint plan first; act only when it does something.
	var access compensator.Action
	any := target >= 0.005
	if any {
		access = compensator.Insert(compensator.AccessoryStream, target)
	}
	screens := make([]compensator.Action, len(m.screens))
	for i, s := range m.screens {
		if d := target - s.lastISD; d >= 0.005 {
			screens[i] = compensator.Insert(compensator.ScreenStream, d)
			any = true
		}
	}
	if !any {
		return
	}
	m.accessStream.Apply(access)
	for i, s := range m.screens {
		s.stream.Apply(screens[i])
		s.nISD = 0
	}
	m.actions++
	m.settleUntil = now + 6
}

func (m *multiSim) finish() *MultiResult {
	res := &MultiResult{Actions: m.actions}
	for _, s := range m.screens {
		res.Traces = append(res.Traces, s.trace)
		in, total := 0, 0
		for _, p := range s.trace {
			if p.TimeSec < m.sc.WarmupIgnoreSec {
				continue
			}
			total++
			if math.Abs(p.ISDSeconds) <= 0.010 {
				in++
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(in) / float64(total)
		}
		res.InSyncFractions = append(res.InSyncFractions, frac)
	}
	return res
}
