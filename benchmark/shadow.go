package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/jitterbuf"
	"ekho/internal/netsim"
	"ekho/internal/pn"
	"ekho/internal/rtp"
	"ekho/internal/serverpipe"
	"ekho/internal/transport"
	"ekho/internal/vclock"
)

// The traced run drives a workload's traffic, in one goroutine, through a
// *shadow session*: the hub session's per-tick and per-chat work
// recomposed from exported layer calls only, with a span around each
// call. The same datagrams cross real loopback UDP sockets and the same
// Player model sits on the far side, so the layers see the inputs they
// see live. A serverpipe.Pipeline fed the identical inputs runs in
// lockstep; the shadow's frames, measurements and actions must match it
// bit for bit, so the layer table times the real composition and not a
// look-alike.
//
// The run is paced in real time, like the live hub, not driven flat out:
// a core that idles between 20 ms bursts runs the same call 1.5–3× slower
// than a saturated one on this class of machine (cold caches, idle-state
// exits), and the live hub idles between bursts. A flat-out table
// reconciles to barely half of the live hub's CPU; a paced one times the
// layers under the conditions the end-to-end number is measured in.
// Everything the players see still happens at exact virtual times.

const (
	// shadowSessions / shadowSeconds size the traced run. Even-indexed
	// sessions are traced, odd-indexed run the same code untraced; the
	// difference in their hub-side time is the tracing overhead.
	shadowSessions = 8
	shadowSeconds  = 14
	// shadowImpairFrom starts the rough workload's impaired span, after
	// first convergence; shadowStepSec is when its screen paths step: after
	// the first compensation has settled, early enough for the second.
	shadowImpairFrom = 5.0
	shadowStepSec    = 9.5

	hubSeed = 4242 // hub.Config's default PN seed
)

// pipeEvent is one measurement or action, as either composition emits it.
type pipeEvent struct {
	now    float64
	isd    float64 // measurement: ISD seconds
	det    float64 // measurement: detection time
	act    compensator.Action
	isMeas bool
}

// eventSink collects a reference pipeline's events.
type eventSink struct {
	serverpipe.NopSink
	events            []pipeEvent
	conceals, expired int
}

func (s *eventSink) ISDMeasurement(now float64, m estimator.Measurement) {
	s.events = append(s.events, pipeEvent{now: now, isd: m.ISDSeconds, det: m.DetectionTime, isMeas: true})
}

func (s *eventSink) CompensationAction(now float64, a compensator.Action) {
	s.events = append(s.events, pipeEvent{now: now, act: a})
}

func (s *eventSink) ChatGapConcealed(uint32, float64) { s.conceals++ }
func (s *eventSink) MarkerExpired(int64)              { s.expired++ }

// heldChat is a parked out-of-order chat payload (deep copy).
type heldChat struct {
	adcMicros int64
	records   []transport.PlaybackRecord
	encoded   []byte
}

// shadowSession is hub/session.go + serverpipe.Pipeline's level-only
// path, rebuilt from the exported layers.
type shadowSession struct {
	id uint32
	tr *Tracer // nil for untraced sessions

	screen, accessory *serverpipe.Stream
	injector          *pn.Injector
	ledger            serverpipe.MarkerLedger
	book              serverpipe.RecordBook
	seqr              serverpipe.ChatSequencer
	reorder           *jitterbuf.Reorder
	hold              [chatReorderWindow]heldChat
	dec               *codec.Decoder
	est               *estimator.Streamer
	comp              *compensator.Compensator
	sink              eventSink

	codecDelaySec float64
	lastChatEnd   float64
	frames        int

	frame   [numStreams][]float64
	pcm     []int16
	pkt     [numStreams][]byte
	chatBuf []float64
	// released lists the chat packets the reorder stage let through during
	// the current chatIn; the reference pipeline is fed them afterwards.
	released []transport.Chat

	// Counts at the layer boundaries.
	chats, decoded, concealed, measurements int
	held, flushed                           uint64

	// ref is the real composition, fed the same inputs in lockstep.
	ref      *serverpipe.Pipeline
	refSink  eventSink
	refFrame [numStreams][]float64
	refNS    int64
	mismatch string

	// hubNS accumulates this session's hub-side time per virtual second
	// (outer timers, on whether or not the session is traced).
	hubNS [shadowSeconds]int64
	// chatAudio keeps the first second of decoded chat for the dsp kernel
	// timings.
	chatAudio []float64
}

func newShadowSession(id uint32, tr *Tracer, game *audio.Buffer, seq *pn.Sequence, prof codec.Profile) *shadowSession {
	s := &shadowSession{
		id: id, tr: tr,
		screen:        serverpipe.NewStream(game),
		accessory:     serverpipe.NewStream(game),
		injector:      pn.NewInjector(seq, pn.DefaultC),
		seqr:          serverpipe.NewChatSequencer(false),
		reorder:       jitterbuf.NewReorder(chatReorderWindow),
		dec:           codec.NewDecoder(prof),
		est:           estimator.NewStreamer(estimator.Config{Seq: seq}),
		comp:          compensator.New(compensator.Config{}),
		codecDelaySec: float64(prof.Delay()) / sampleRate,
		pcm:           make([]int16, frameSamples),
	}
	for st := range s.frame {
		s.frame[st] = make([]float64, frameSamples)
		s.refFrame[st] = make([]float64, frameSamples)
	}
	s.ref = serverpipe.New(serverpipe.Config{Game: game, Seq: seq, Codec: prof, Sink: &s.refSink})
	return s
}

// second is the virtual second the session's content clock is in.
func (s *shadowSession) second() int {
	return min(s.frames*frameSamples/sampleRate, shadowSeconds-1)
}

func (s *shadowSession) fail(format string, args ...any) {
	if s.mismatch == "" {
		s.mismatch = fmt.Sprintf("session %d: ", s.id) + fmt.Sprintf(format, args...)
	}
}

// tick produces one 20 ms frame pair, as hub session.tick does, sends both
// datagrams, and then checks both frames against the reference pipeline.
func (s *shadowSession) tick(conn *transport.Conn, enc transport.WireEncoder, to [numStreams]net.Addr) error {
	t0 := time.Now()
	tr := s.tr
	root := tr.Begin(LayerTick, s.id)
	var fis [numStreams]serverpipe.FrameInfo
	var out [numStreams]transport.Packet
	for st, stream := range [numStreams]*serverpipe.Stream{s.screen, s.accessory} {
		frame := s.frame[st]
		sp := tr.Begin(LayerStreamNext, s.id)
		fi := stream.Next(frame)
		tr.End(sp)
		if st == streamScreen {
			sp = tr.Begin(LayerInject, s.id)
			before := s.injector.InjectionCount()
			s.injector.ProcessFrame(frame)
			if s.injector.InjectionCount() > before {
				mc := fi.ContentStart
				if mc < 0 {
					mc = s.screen.NextContent()
				}
				s.ledger.Add(mc)
			}
			tr.End(sp)
			s.frames++
		}
		sp = tr.Begin(LayerWireEncode, s.id)
		for i, v := range frame {
			s.pcm[i] = audio.FloatToInt16(v)
		}
		pkt, err := enc.AppendMedia(s.pkt[st][:0], transport.Media{
			Seq: fi.Seq, Session: s.id, ContentStart: fi.ContentStart,
			ContentOff: uint16(fi.ContentOff), Samples: s.pcm,
		})
		tr.End(sp)
		if err != nil {
			return err
		}
		s.pkt[st], fis[st] = pkt, fi
		out[st] = transport.Packet{Buf: pkt, To: to[st]}
	}
	sp := tr.Begin(LayerSend, s.id)
	n, err := conn.SendBatch(out[:])
	tr.End(sp)
	tr.End(root)
	s.hubNS[s.second()] += int64(time.Since(t0))
	if n != len(out) {
		return fmt.Errorf("shadow send: %w", err)
	}

	// The real composition, on the same clock: frames must be identical.
	t0 = time.Now()
	rs := s.ref.NextScreenFrame(s.refFrame[streamScreen])
	ra := s.ref.NextAccessoryFrame(s.refFrame[streamAccessory])
	s.refNS += int64(time.Since(t0))
	for st, rf := range [numStreams]serverpipe.FrameInfo{rs, ra} {
		if fis[st] != rf {
			s.fail("stream %d frame info %+v, pipeline %+v", st, fis[st], rf)
			continue
		}
		for i, v := range s.frame[st] {
			if math.Float64bits(v) != math.Float64bits(s.refFrame[st][i]) {
				s.fail("stream %d frame %d sample %d differs from the pipeline's", st, rf.Seq, i)
				break
			}
		}
	}
	return nil
}

// chatIn is hub session.chatIn: the reorder stage ahead of the pipeline.
func (s *shadowSession) chatIn(c *transport.Chat) {
	tr := s.tr
	sp := tr.Begin(LayerReorder, s.id)
	v, slot := s.reorder.Offer(c.Seq)
	fast := v == jitterbuf.RDeliver && s.reorder.Pending() == 0
	if v == jitterbuf.RHold {
		h := &s.hold[slot]
		h.adcMicros = c.ADCMicros
		h.records = append(h.records[:0], c.Records...)
		h.encoded = append(h.encoded[:0], c.Encoded...)
	}
	tr.End(sp)
	if v == jitterbuf.RDeliver {
		s.chat(*c)
	}
	if fast {
		return
	}
	for {
		sp = tr.Begin(LayerReorder, s.id)
		slot, seq, ok := s.reorder.Pop()
		tr.End(sp)
		if !ok {
			break
		}
		h := &s.hold[slot]
		s.chat(transport.Chat{Seq: seq, Session: s.id, ADCMicros: h.adcMicros, Records: h.records, Encoded: h.encoded})
	}
	st := s.reorder.Stats()
	s.held, s.flushed = st.Held, st.Flushed+st.Overflows
}

// chat is hub session.chat + Pipeline.OfferRecord/OfferChat.
func (s *shadowSession) chat(c transport.Chat) {
	tr := s.tr
	adc := float64(c.ADCMicros) / 1e6
	s.released = append(s.released, c)

	sp := tr.Begin(LayerMatch, s.id)
	for _, r := range c.Records {
		s.book.Add(serverpipe.Record{ContentStart: r.ContentStart, N: int(r.N), LocalTime: float64(r.LocalMicros) / 1e6})
	}
	s.ledger.Resolve(&s.book, s.est, &s.sink)
	s.book.Evict(s.ledger.MinPending())
	tr.End(sp)

	lost, fresh := s.seqr.Offer(c.Seq)
	for i := lost; i > 0; i-- {
		sp = tr.Begin(LayerChatDecode, s.id)
		s.chatBuf = s.dec.ConcealTo(s.chatBuf[:0])
		tr.End(sp)
		s.concealed++
		s.feedChat(s.chatBuf, s.lastChatEnd)
	}
	if fresh {
		sp = tr.Begin(LayerChatDecode, s.id)
		decoded, err := s.dec.DecodeTo(s.chatBuf[:0], c.Encoded)
		if err != nil {
			decoded = s.dec.ConcealTo(s.chatBuf[:0])
		}
		tr.End(sp)
		s.chatBuf = decoded
		s.decoded++
		if len(s.chatAudio) < sampleRate {
			s.chatAudio = append(s.chatAudio, decoded...)
		}
		s.feedChat(decoded, adc-s.codecDelaySec)
	}
}

// feedChat is Pipeline.feedChat without the drift regime.
func (s *shadowSession) feedChat(samples []float64, startLocal float64) {
	tr := s.tr
	sp := tr.Begin(LayerEstimator, s.id)
	ms := s.est.AddChat(samples, startLocal)
	tr.End(sp)
	s.lastChatEnd = startLocal + float64(len(samples))/sampleRate
	now := float64(s.frames) * frameSec
	for _, m := range ms {
		s.measurements++
		s.sink.ISDMeasurement(now, m)
		sp = tr.Begin(LayerCompensate, s.id)
		if act := s.comp.Offer(now, m.ISDSeconds); act != nil {
			s.sink.CompensationAction(now, *act)
			if act.Stream == compensator.ScreenStream {
				s.screen.Apply(*act)
			} else {
				s.accessory.Apply(*act)
			}
		}
		tr.End(sp)
	}
}

// refChat feeds one post-reorder chat packet to the reference pipeline.
func (s *shadowSession) refChat(c *transport.Chat) {
	t0 := time.Now()
	for _, r := range c.Records {
		s.ref.OfferRecord(serverpipe.Record{ContentStart: r.ContentStart, N: int(r.N), LocalTime: float64(r.LocalMicros) / 1e6})
	}
	s.ref.OfferChat(c.Seq, float64(c.ADCMicros)/1e6, c.Encoded)
	s.refNS += int64(time.Since(t0))
}

// compareEvents checks the shadow's measurement/action sequence against
// the reference pipeline's, bit for bit.
func (s *shadowSession) compareEvents() {
	a, b := s.sink.events, s.refSink.events
	if len(a) != len(b) {
		s.fail("%d measurement/action events, pipeline %d", len(a), len(b))
		return
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.isMeas != y.isMeas || x.act != y.act ||
			math.Float64bits(x.now) != math.Float64bits(y.now) ||
			math.Float64bits(x.isd) != math.Float64bits(y.isd) ||
			math.Float64bits(x.det) != math.Float64bits(y.det) {
			s.fail("event %d is %+v, pipeline %+v", i, x, y)
			return
		}
	}
}

// ShadowResult is what the traced run measured.
type ShadowResult struct {
	Costs [numLayers]LayerCost
	Spans []Span
	// TracedSessionSec / UntracedSessionSec are the session-seconds each
	// half of the fleet ran; HubNS their hub-side time per session-second
	// by the outer timers.
	TracedSessionSec, UntracedSessionSec float64
	TracedHubNS, UntracedHubNS           []float64
	// PipelineNS is the reference pipelines' total over every session.
	PipelineNS int64
	// Counts at the boundaries, traced sessions only.
	Chats, Decoded, Concealed, Measurements, Frames int
	MediaSent                                       int
	Held, Flushed                                   uint64
	// Converged counts sessions whose ground-truth ISD converged.
	Converged int
	Actions   int
	Mismatch  []string
	// ChatAudio is one second of decoded chat from the first session.
	ChatAudio []float64
}

// shadowRun is the traced run's moving parts.
type shadowRun struct {
	w       Workload
	hubConn *transport.Conn
	devConn [numStreams]*transport.Conn
	enc     transport.WireEncoder
	hubAddr net.Addr
	devAddr [numStreams]net.Addr
	// dec2 decodes each chat datagram a second time, alone, so the wire
	// decode can be told apart from the socket read that contains it.
	dec2 transport.Decoder

	sched    *vclock.Scheduler
	sessions []*shadowSession
	players  []*Player
	links    [][numStreams]*netsim.Link
	ups      []*netsim.Link

	msg, msg2 [1]transport.Message
	out       [1]transport.Packet
	chatWire  []byte
	err       error
}

// runShadow executes the traced run for a workload and seed.
func runShadow(w Workload, seed int64) (*ShadowResult, error) {
	plan := newPlanN(w, seed, shadowSessions)
	game := gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds)
	seq := pn.NewSequence(hubSeed, pn.DefaultLength)

	sr := &shadowRun{w: w, enc: wireEncoder(w.Wire), dec2: rtp.NewCodec(), sched: vclock.NewScheduler()}
	defer sr.close()
	var err error
	if sr.hubConn, err = transport.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	sr.hubConn.SetDecoder(rtp.NewCodec())
	sr.hubAddr = sr.hubConn.LocalAddr()
	for st := range sr.devConn {
		if sr.devConn[st], err = transport.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		sr.devConn[st].SetDecoder(rtp.NewCodec())
		sr.devAddr[st] = sr.devConn[st].LocalAddr()
	}

	tracer := NewTracer(shadowSessions / 2 * shadowSeconds * 1100)
	for i, sp := range plan.Sessions {
		var tr *Tracer
		if i%2 == 0 {
			tr = tracer
		}
		ss := newShadowSession(sp.ID, tr, game, seq, w.Uplink)
		p := NewPlayer(sp, w.Uplink)
		sr.sessions = append(sr.sessions, ss)
		sr.players = append(sr.players, p)
		var ls [numStreams]*netsim.Link
		var up *netsim.Link
		if w.Rough {
			for st, cfg := range [numStreams]netsim.LinkConfig{sp.ScreenDown, sp.AccessoryDown} {
				st := st
				ls[st] = netsim.NewLink(cfg, sr.sched, func(pk netsim.Packet) {
					p.PushMedia(st, pk.Payload.(*transport.Media), float64(sr.sched.Now()))
				})
			}
			up = netsim.NewLink(sp.ChatUp, sr.sched, func(pk netsim.Packet) {
				sr.uplink(ss, pk.Payload.([]byte))
			})
		}
		sr.links = append(sr.links, ls)
		sr.ups = append(sr.ups, up)
	}
	order := make([]int, len(sr.players))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sr.players[order[a]].plan.TickPhase < sr.players[order[b]].plan.TickPhase
	})

	// Virtual time: the hub ticks every session at k·20 ms; each player's
	// device tick follows at k·20 ms + its phase. Real time keeps step.
	var script *roughScript
	if w.Rough {
		script = newRoughScript(shadowImpairFrom, shadowSeconds-shadowImpairFrom, shadowStepSec, shadowSessions)
	}
	start := time.Now()
	pace := func(t float64) {
		time.Sleep(time.Duration(t*float64(time.Second)) - time.Since(start))
		sr.sched.RunUntil(vclock.Time(t))
	}
	for k := 0; k < shadowSeconds*sampleRate/frameSamples && sr.err == nil; k++ {
		t := float64(k) * frameSec
		pace(t)
		if script != nil {
			script.apply(t, plan.Sessions, func(i int) [numPaths]*netsim.Link {
				return [numPaths]*netsim.Link{sr.links[i][streamScreen], sr.links[i][streamAccessory], sr.ups[i]}
			})
		}
		for i, ss := range sr.sessions {
			if err := ss.tick(sr.hubConn, sr.enc, sr.devAddr); err != nil {
				return nil, err
			}
			if err := sr.downlink(i, t); err != nil {
				return nil, err
			}
		}
		for _, i := range order {
			p := sr.players[i]
			pace(p.NextTickTime())
			chat, ok := p.Tick()
			if !ok {
				continue
			}
			b, err := sr.enc.AppendChat(sr.chatWire[:0], chat)
			if err != nil {
				return nil, err
			}
			sr.chatWire = b
			if up := sr.ups[i]; up != nil {
				up.Send(append([]byte(nil), b...))
			} else {
				sr.uplink(sr.sessions[i], b)
			}
		}
	}
	if sr.err != nil {
		return nil, sr.err
	}

	res := &ShadowResult{Spans: tracer.spans, Costs: SelfTimes(tracer.spans), ChatAudio: sr.sessions[0].chatAudio}
	for i, ss := range sr.sessions {
		ss.compareEvents()
		if ss.mismatch != "" {
			res.Mismatch = append(res.Mismatch, ss.mismatch)
		}
		res.PipelineNS += ss.refNS
		if _, ok := sr.players[i].Score.ConvergeAt(0); ok {
			res.Converged++
		}
		if ss.tr == nil {
			res.UntracedSessionSec += shadowSeconds
			for _, ns := range ss.hubNS {
				res.UntracedHubNS = append(res.UntracedHubNS, float64(ns))
			}
			continue
		}
		res.TracedSessionSec += shadowSeconds
		for _, ns := range ss.hubNS {
			res.TracedHubNS = append(res.TracedHubNS, float64(ns))
		}
		res.Chats += ss.chats
		res.Decoded += ss.decoded
		res.Concealed += ss.concealed + ss.sink.conceals
		res.Measurements += ss.measurements
		res.Frames += ss.frames
		res.MediaSent += ss.frames * numStreams
		res.Held += ss.held
		res.Flushed += ss.flushed
		for _, e := range ss.sink.events {
			if !e.isMeas {
				res.Actions++
			}
		}
	}
	return res, nil
}

func (sr *shadowRun) close() {
	for _, c := range append(sr.devConn[:], sr.hubConn) {
		if c != nil {
			c.Close()
		}
	}
}

// downlink moves session i's two fresh datagrams from the device sockets
// to its player (through the session's links on the rough workload).
func (sr *shadowRun) downlink(i int, now float64) error {
	for st, c := range sr.devConn {
		n, err := c.RecvBatch(time.Now().Add(time.Second), sr.msg[:])
		if n != 1 {
			return fmt.Errorf("shadow downlink: %w", err)
		}
		m := &sr.msg[0].Media
		if link := sr.links[i][st]; link != nil {
			cp := *m
			cp.Samples = append([]int16(nil), m.Samples...)
			link.Send(&cp)
		} else {
			sr.players[i].PushMedia(st, m, now)
		}
	}
	return nil
}

// uplink carries one chat datagram over UDP into the shadow session: the
// hub-side socket read, and everything behind it.
func (sr *shadowRun) uplink(ss *shadowSession, wire []byte) {
	sr.out[0] = transport.Packet{Buf: wire, To: sr.hubAddr}
	if n, err := sr.devConn[streamAccessory].SendBatch(sr.out[:]); n != 1 {
		sr.err = fmt.Errorf("shadow uplink send: %w", err)
		return
	}
	t0 := time.Now()
	tr := ss.tr
	root := tr.Begin(LayerChat, ss.id)
	sp := tr.Begin(LayerSocketRead, ss.id)
	n, err := sr.hubConn.RecvBatch(time.Now().Add(time.Second), sr.msg[:])
	tr.End(sp)
	if n != 1 {
		tr.End(root)
		sr.err = fmt.Errorf("shadow uplink receive: %w", errors.Join(err, errors.New("datagram missing")))
		return
	}
	ss.chats++
	ss.released = ss.released[:0]
	ss.chatIn(&sr.msg[0].Chat)
	tr.End(root)
	ss.hubNS[ss.second()] += int64(time.Since(t0))

	// The instrument's own work, outside the roots and the outer timer:
	// the same bytes through the same decoder type, alone (RecvBatch's
	// span contains its decode; this tells the two apart), then the
	// reference pipeline.
	sp = tr.Begin(LayerWireDecode, ss.id)
	derr := sr.dec2.DecodeInto(&sr.msg2[0], wire)
	tr.End(sp)
	if derr != nil {
		sr.err = fmt.Errorf("shadow wire decode: %w", derr)
		return
	}
	for i := range ss.released {
		ss.refChat(&ss.released[i])
	}
}
