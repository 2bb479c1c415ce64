package hub

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"

	"ekho"
	"ekho/internal/audio"
	"ekho/internal/jitterbuf"
	"ekho/internal/serverpipe"
	"ekho/internal/trace"
	"ekho/internal/transport"
)

// frameSec is the content-time advance of one media tick (20 ms).
const frameSec = float64(ekho.FrameSamples) / ekho.SampleRate

// chatReorderWindow is how many out-of-order chat uplink packets a
// session parks before abandoning a gap to the sequencer's concealment.
// Chat packets are ~one per frame, so 4 slots rides out 80 ms of
// reordering — beyond that the packet is as good as lost for a 10 ms
// sync target.
const chatReorderWindow = 4

// SessionResult summarizes one hosted session after it ends.
type SessionResult struct {
	// ID is the wire session identifier.
	ID uint32
	// Measurements / Actions count estimator outputs and compensator
	// corrections over the session's lifetime; Resamples counts drift
	// rate retunes.
	Measurements int
	Actions      int
	Resamples    int
	// PostActionMeasurements counts measurements taken after the first
	// correction was applied (a convergence proof needs at least one).
	PostActionMeasurements int
	// FirstActionFrames is the insert size of the first compensation.
	FirstActionFrames int
	// ISDs holds every measured ISD in seconds, in order.
	ISDs []float64
	// Frames is the number of media frame pairs streamed.
	Frames int
}

// session hosts one Ekho pipeline on the hub: it owns the socket I/O and
// wire serialization for two endpoints and delegates everything else —
// streams, markers, estimation, compensation — to a serverpipe.Pipeline.
// All fields except lastActive are owned by the session's shard worker;
// lastActive is touched by the receive loop and read by the reaper.
type session struct {
	id    uint32
	hub   *Hub
	shard *shard // the shard this session is pinned to (egress queue)

	// wire is the framing the session helloed in; enc is the matching
	// stateless encoder, used for every packet sent to this session.
	wire transport.Wire
	enc  transport.WireEncoder

	screenAddr     net.Addr
	controllerAddr net.Addr
	ready          bool

	pipe *serverpipe.Pipeline
	res  SessionResult

	// reorder resequences the chat uplink ahead of the pipeline's
	// ChatSequencer; hold stores the payload copies for parked packets
	// (slot-indexed, capacity reused across anomalies). lastReorder is
	// the stats snapshot already forwarded to the hub aggregates.
	reorder     *jitterbuf.Reorder
	hold        []heldChat
	lastReorder jitterbuf.ReorderStats

	// Per-session observability, fed by the EventSink callbacks and
	// served by the /sessions admin endpoint.
	injected  int
	matched   int
	expired   int
	conceals  int
	isdLastMS float64
	isdPeakMS float64 // peak |ISD|

	// rec captures the session's timeline when the hub records; recFile
	// is the backing log file. Both are touched only on the shard worker
	// (and at shutdown, after workers stopped).
	rec     *trace.Recorder
	recFile *os.File

	// Per-tick scratch: one frame is generated, marked, converted and
	// serialized at a time. The two packet buffers (one per stream) stay
	// queued on the shard's egress until the worker flushes it at the
	// end of the tick, so each needs its own storage; they are free for
	// reuse by the next tick, which runs strictly after the flush.
	frame   []float64
	pcm     []int16
	pktScr  []byte
	pktAcc  []byte
	lastPkt int // wire size of the most recently serialized frame

	// lastActive is the wall clock (UnixNano) of the last packet seen
	// for this session, maintained by the receive loop for the reaper.
	lastActive atomic.Int64
}

// heldChat is the payload of one parked out-of-order chat packet: a deep
// copy (the arena slices a Message decodes into are recycled after the
// batch), with capacity reused across the session's lifetime so only the
// first few anomalies allocate.
type heldChat struct {
	adcMicros int64
	records   []transport.PlaybackRecord
	encoded   []byte
}

func (h *Hub) newSession(sh *shard, id uint32, wire transport.Wire) *session {
	s := &session{
		id:      id,
		hub:     h,
		shard:   sh,
		wire:    wire,
		enc:     wireEncoder(wire),
		res:     SessionResult{ID: id},
		reorder: jitterbuf.NewReorder(chatReorderWindow),
		hold:    make([]heldChat, chatReorderWindow),
		frame:   make([]float64, ekho.FrameSamples),
		pcm:     make([]int16, ekho.FrameSamples),
	}
	cfg := serverpipe.Config{
		Game:        h.clip(h.cfg.Clip),
		Seq:         h.markerSeq(),
		MarkerC:     h.cfg.MarkerC,
		Codec:       h.codecProfile(),
		Compensator: h.cfg.Compensator,
		Sink:        s,
	}
	s.pipe = serverpipe.New(cfg)
	if h.cfg.RecordDir != "" {
		s.openRecorder(cfg)
	}
	return s
}

// openRecorder starts capturing the session's timeline to
// <RecordDir>/session-<id>.ektrace. Recording failures degrade to an
// unrecorded session rather than refusing admission.
func (s *session) openRecorder(cfg serverpipe.Config) {
	path := filepath.Join(s.hub.cfg.RecordDir, fmt.Sprintf("session-%d.ektrace", s.id))
	f, err := os.Create(path)
	if err != nil {
		s.hub.logf("hub: session %d: recording disabled: %v", s.id, err)
		return
	}
	rec, err := trace.NewRecorder(f, trace.HeaderFor(s.id, s.hub.cfg.Clip, s.hub.cfg.Seed, cfg))
	if err != nil {
		s.hub.logf("hub: session %d: recording disabled: %v", s.id, err)
		f.Close()
		return
	}
	s.rec = rec
	s.recFile = f
	s.hub.logf("hub: session %d: recording to %s", s.id, path)
}

// closeRecorder flushes and closes the session's trace log. Idempotent;
// called on session removal and at hub shutdown.
func (s *session) closeRecorder() {
	if s.rec == nil {
		return
	}
	if err := s.rec.Close(); err != nil {
		s.hub.logf("hub: session %d: trace flush: %v", s.id, err)
	}
	if err := s.recFile.Close(); err != nil {
		s.hub.logf("hub: session %d: trace close: %v", s.id, err)
	}
	s.rec, s.recFile = nil, nil
}

// handle processes one packet on the shard worker. It reports true when
// the session ended (Bye) and should be removed. Batch items pass a
// pointer into the receive arena; nothing in msg may be retained past
// the call except From (control packets only), which the dispatcher
// materialized as a stable value.
func (s *session) handle(msg *transport.Message) (done bool) {
	switch msg.Type {
	case transport.TypeHello:
		s.hello(msg)
	case transport.TypeChat:
		s.chatIn(&msg.Chat)
	case transport.TypeBye:
		s.hub.logf("hub: session %d: bye from %s", s.id, msg.From)
		return true
	}
	return false
}

func (s *session) hello(msg *transport.Message) {
	switch msg.Hello.Role {
	case transport.RoleScreen:
		s.screenAddr = msg.From
		s.hub.logf("hub: session %d: screen registered from %s", s.id, msg.From)
	case transport.RoleController:
		s.controllerAddr = msg.From
		s.hub.logf("hub: session %d: controller registered from %s", s.id, msg.From)
	default:
		return
	}
	if !s.ready && s.screenAddr != nil && s.controllerAddr != nil {
		s.ready = true
		s.hub.logf("hub: session %d: both endpoints joined; streaming", s.id)
		if s.hub.cfg.OnSessionReady != nil {
			s.hub.cfg.OnSessionReady(s.id)
		}
	}
}

// tick emits one 20 ms frame pair: marked screen audio to the screen
// endpoint and accessory audio to the controller endpoint. Both packets
// are queued on the shard's egress and leave in one batched flush.
func (s *session) tick() {
	if !s.ready {
		return
	}
	if s.rec != nil {
		s.rec.Tick(s.pipe.Now())
	}
	fi := s.pipe.NextScreenFrame(s.frame)
	s.pktScr = s.sendMedia(s.pktScr, s.screenAddr, transport.Media{
		Seq: fi.Seq, Session: s.id, ContentStart: fi.ContentStart, ContentOff: uint16(fi.ContentOff)})
	if s.rec != nil {
		s.rec.MediaOut(trace.StreamScreen, fi, s.lastPkt)
	}
	fi = s.pipe.NextAccessoryFrame(s.frame)
	s.pktAcc = s.sendMedia(s.pktAcc, s.controllerAddr, transport.Media{
		Seq: fi.Seq, Session: s.id, ContentStart: fi.ContentStart, ContentOff: uint16(fi.ContentOff)})
	if s.rec != nil {
		s.rec.MediaOut(trace.StreamAccessory, fi, s.lastPkt)
	}
	s.res.Frames++
}

// chatIn runs one uplink packet through the reorder stage and delivers
// whatever comes out in sequence. The in-order case — no gap open, the
// packet is the expected sequence — costs two compares on top of the
// old direct path and delivers the arena-backed payload zero-copy;
// out-of-order packets are deep-copied into a hold slot until the gap
// fills or the window flushes.
func (s *session) chatIn(c *transport.Chat) {
	v, slot := s.reorder.Offer(c.Seq)
	if v == jitterbuf.RDeliver && s.reorder.Pending() == 0 {
		s.chat(*c) // fast path: nothing held, nothing to drain
		return
	}
	switch v {
	case jitterbuf.RDeliver:
		s.chat(*c)
	case jitterbuf.RHold:
		h := &s.hold[slot]
		h.adcMicros = c.ADCMicros
		h.records = append(h.records[:0], c.Records...)
		h.encoded = append(h.encoded[:0], c.Encoded...)
	}
	for {
		slot, seq, ok := s.reorder.Pop()
		if !ok {
			break
		}
		h := &s.hold[slot]
		// s.chat consumes the payload synchronously (the pipeline copies
		// what it keeps), so the slot is free for reuse on return.
		s.chat(transport.Chat{
			Seq: seq, Session: s.id, ADCMicros: h.adcMicros,
			Records: h.records, Encoded: h.encoded,
		})
	}
	// Forward the stage's counter movement to the fleet aggregates; only
	// anomaly paths reach here, so the fast path never touches these.
	st := s.reorder.Stats()
	d, prev := &s.hub.stats, s.lastReorder
	if n := st.Held - prev.Held; n > 0 {
		d.reordered.Add(int64(n))
	}
	if n := st.Late - prev.Late; n > 0 {
		d.reorderLate.Add(int64(n))
	}
	if n := st.Duplicates - prev.Duplicates; n > 0 {
		d.reorderDups.Add(int64(n))
	}
	if n := (st.Flushed + st.Overflows) - (prev.Flushed + prev.Overflows); n > 0 {
		d.reorderFlushed.Add(int64(n))
	}
	s.lastReorder = st
}

// chat deserializes one uplink packet into the pipeline: piggybacked
// playback records first (micros → seconds), then the encoded audio.
func (s *session) chat(chat transport.Chat) {
	if !s.ready {
		return
	}
	for _, r := range chat.Records {
		rec := serverpipe.Record{
			ContentStart: r.ContentStart,
			N:            int(r.N),
			LocalTime:    float64(r.LocalMicros) / 1e6,
		}
		if s.rec != nil {
			s.rec.OfferRecord(s.pipe.Now(), rec)
		}
		s.pipe.OfferRecord(rec)
	}
	adc := float64(chat.ADCMicros) / 1e6
	if s.rec != nil {
		s.rec.OfferChat(s.pipe.Now(), chat.Seq, adc, chat.Encoded)
	}
	s.pipe.OfferChat(chat.Seq, adc, chat.Encoded)
}

// result snapshots the session's outcome; callers must hold the shard
// worker's serialization (remove path or post-shutdown).
func (s *session) result() SessionResult { return s.res }

// sendMedia serializes the session's scratch frame as the media payload
// into buf (reusing its capacity) and queues it on the shard's egress;
// the worker's end-of-item flush transmits it. It returns the grown
// buffer for the caller to retain; s.lastPkt records the wire size.
func (s *session) sendMedia(buf []byte, to net.Addr, m transport.Media) []byte {
	for i, v := range s.frame {
		s.pcm[i] = audio.FloatToInt16(v)
	}
	m.Samples = s.pcm
	out, err := s.enc.AppendMedia(buf[:0], m)
	if err != nil {
		s.hub.stats.sendErrs.Add(1)
		s.lastPkt = 0
		return buf
	}
	s.lastPkt = len(out)
	if to != nil {
		s.shard.egress = append(s.shard.egress, transport.Packet{Buf: out, To: to})
	}
	return out
}

// info snapshots the session for the admin plane; shard workers call it
// for the hub's SessionInfos collection (trace.SessionStat lines are
// derived from it, so the two views can never drift).
func (s *session) info() SessionInfo {
	rs := s.reorder.Stats()
	return SessionInfo{
		ID:           s.id,
		Wire:         s.wire.String(),
		Frames:       s.res.Frames,
		Measurements: s.res.Measurements,
		Actions:      s.res.Actions,
		Pending:      s.pipe.PendingMarkers(),
		Records:      s.pipe.RecordCount(),
		Resamples:    s.res.Resamples,
		Injected:     s.injected,
		Matched:      s.matched,
		Expired:      s.expired,
		Conceals:     s.conceals,
		ISDLastMS:    s.isdLastMS,
		ISDPeakAbsMS: s.isdPeakMS,
		ReorderHeld:  rs.Held,
		ReorderLate:  rs.Late,
		ReorderDups:  rs.Duplicates,
		GapsFlushed:  rs.Flushed + rs.Overflows,
	}
}

// The session is its pipeline's EventSink: measurement and action events
// feed the hub's per-session results and fleet counters, and are teed to
// the trace recorder when the hub records.

// MarkerInjected implements serverpipe.EventSink.
func (s *session) MarkerInjected(content int64) {
	if s.rec != nil {
		s.rec.MarkerInjected(content)
	}
	s.injected++
	s.hub.stats.injections.Inc()
}

// MarkerMatched implements serverpipe.EventSink.
func (s *session) MarkerMatched(content int64, localTime float64) {
	if s.rec != nil {
		s.rec.MarkerMatched(content, localTime)
	}
	s.matched++
	s.hub.stats.matches.Inc()
}

// MarkerExpired implements serverpipe.EventSink.
func (s *session) MarkerExpired(content int64) {
	if s.rec != nil {
		s.rec.MarkerExpired(content)
	}
	s.expired++
	s.hub.stats.expired.Inc()
	s.hub.logf("hub: session %d: marker at content %d expired unmatched", s.id, content)
}

// ChatGapConcealed implements serverpipe.EventSink.
func (s *session) ChatGapConcealed(seq uint32, startLocal float64) {
	if s.rec != nil {
		s.rec.ChatGapConcealed(seq, startLocal)
	}
	s.conceals++
	s.hub.stats.conceals.Inc()
}

// ChatResync implements serverpipe.EventSink. It is counted, not logged:
// any host can send a far-ahead sequence number, one per datagram.
func (s *session) ChatResync(uint32, int) { s.hub.stats.chatResyncs.Inc() }

// ISDMeasurement implements serverpipe.EventSink.
func (s *session) ISDMeasurement(now float64, m ekho.Measurement) {
	if s.rec != nil {
		s.rec.ISDMeasurement(now, m)
	}
	s.res.Measurements++
	s.hub.stats.measurements.Add(1)
	if s.res.Actions > 0 {
		s.res.PostActionMeasurements++
	}
	s.res.ISDs = append(s.res.ISDs, m.ISDSeconds)
	s.isdLastMS = m.ISDSeconds * 1000
	if abs := math.Abs(s.isdLastMS); abs > s.isdPeakMS {
		s.isdPeakMS = abs
		s.hub.stats.isdPeakMS.Observe(abs)
	}
	s.hub.logf("hub: session %d: ISD measurement %+.1f ms (strength %.0f)", s.id, m.ISDSeconds*1000, m.Strength)
}

// CompensationAction implements serverpipe.EventSink.
func (s *session) CompensationAction(now float64, a ekho.Action) {
	if s.rec != nil {
		s.rec.CompensationAction(now, a)
	}
	s.res.Actions++
	s.hub.stats.actions.Add(1)
	if s.res.Actions == 1 {
		s.res.FirstActionFrames = a.InsertFrames
	}
	s.hub.logf("hub: session %d: compensation %v stream insert=%d skip=%d frames",
		s.id, a.Stream, a.InsertFrames, a.SkipFrames)
}

// ResampleApplied implements serverpipe.EventSink.
func (s *session) ResampleApplied(now float64, r ekho.Resample) {
	if s.rec != nil {
		s.rec.ResampleApplied(now, r)
	}
	s.res.Resamples++
	s.hub.stats.resamples.Add(1)
	s.hub.logf("hub: session %d: resample %v stream rate %+.1f ppm", s.id, r.Stream, r.PPM)
}
