package hub

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"

	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/jitterbuf"
	"ekho/internal/rtp"
	"ekho/internal/serverpipe"
	"ekho/internal/trace"
	"ekho/internal/transport"
)

// frameSec is the content-time advance of one media tick (20 ms).
const frameSec = float64(audio.FrameSamples) / audio.SampleRate

// chatReorderWindow is how many out-of-order chat uplink packets a
// session parks before abandoning a gap to the sequencer's concealment.
// Chat packets are ~one per frame, so 4 slots rides out 80 ms of
// reordering — beyond that the packet is as good as lost for a 10 ms
// sync target.
const chatReorderWindow = 4

// isdKeep is how many of a session's newest ISD measurements
// SessionResult.ISDs keeps: about 17 minutes at one marker a second.
const isdKeep = 1024

// mediaPacketCap is one encoded media packet: a 12-byte header on either
// framing (v2 and RTP alike) and the frame's body. The session's packet
// buffers are allocated at this size, so the first tick does not grow
// them.
const mediaPacketCap = rtp.HeaderLen + 12 + 2*audio.FrameSamples

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
	// FirstActionFrames is the insert size of the first compensation,
	// rounded to whole frames.
	FirstActionFrames int
	// ISDs holds the newest measured ISDs in seconds, oldest first: all
	// of them up to isdKeep (1024), then the newest isdKeep. Measurements
	// still counts every one.
	ISDs []float64
	// Frames is the number of media frame pairs streamed.
	Frames int
}

// session hosts one Ekho pipeline on the hub: it owns the socket I/O and
// wire serialization for two endpoints and delegates everything else —
// streams, markers, estimation, compensation — to a serverpipe.Pipeline.
// Its state is touched only under the hub's mutex, so it needs no locking
// of its own.
type session struct {
	id  uint32
	hub *Hub

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
	// is the backing log file.
	rec     *trace.Recorder
	recFile *os.File

	// Per-tick packet buffers, one per stream. The frame and its PCM
	// conversion are the hub's tick scratch (the hub ticks one session at
	// a time and serializes before the next runs), but the packets stay
	// queued on the hub's egress until it is flushed at the end of the
	// tick, so each needs its own storage; they are free for reuse by the
	// next tick, which runs strictly after the flush.
	pktScr  []byte
	pktAcc  []byte
	lastPkt int // wire size of the most recently serialized frame

	// lastActive is the wall clock (UnixNano) of the last packet seen
	// for this session, read by the idle reaper.
	lastActive int64
}

// heldChat is the payload of one parked out-of-order chat packet: a deep
// copy (the slices a Message decodes into are reused by the next
// batch), with capacity reused across the session's lifetime so only the
// first few anomalies allocate.
type heldChat struct {
	adcMicros int64
	records   []transport.PlaybackRecord
	encoded   []byte
}

func (h *Hub) newSession(id uint32, wire transport.Wire) *session {
	s := &session{
		id:      id,
		hub:     h,
		wire:    wire,
		enc:     wireEncoder(wire),
		res:     SessionResult{ID: id},
		reorder: jitterbuf.NewReorder(chatReorderWindow),
		hold:    make([]heldChat, chatReorderWindow),
		pktScr:  make([]byte, 0, mediaPacketCap),
		pktAcc:  make([]byte, 0, mediaPacketCap),
	}
	game, seq := h.media()
	cfg := serverpipe.Config{
		Game:        game,
		Seq:         seq,
		MarkerC:     h.cfg.MarkerC,
		Codec:       h.cfg.Codec,
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
	rec, err := trace.NewRecorder(f, trace.HeaderFor(s.id, s.hub.cfg.Clip, markerSeed, cfg))
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

// handle processes one packet. It reports true when the session ended
// (Bye) and should be removed. msg points into a receive batch that the
// next poll overwrites; nothing in it may be retained past the call except
// From (control packets only), which the decoder materialized as a stable
// value.
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
// are queued on the hub's egress and leave in one batched flush.
func (s *session) tick() {
	if !s.ready {
		return
	}
	if s.rec != nil {
		s.rec.Tick(s.pipe.Now())
	}
	fi := s.pipe.NextScreenFrame(s.hub.frame)
	s.pktScr = s.sendMedia(s.pktScr, s.screenAddr, transport.Media{
		Seq: fi.Seq, Session: s.id, ContentStart: fi.ContentStart, ContentOff: uint16(fi.ContentOff)})
	if s.rec != nil {
		s.rec.MediaOut(trace.StreamScreen, fi, s.lastPkt)
	}
	fi = s.pipe.NextAccessoryFrame(s.hub.frame)
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
// old direct path and delivers the batch-backed payload zero-copy;
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

// result snapshots the session's outcome; callers hold the hub's mutex.
func (s *session) result() SessionResult { return s.res }

// sendMedia serializes the hub's scratch frame as the media payload into
// buf (reusing its capacity) and queues it on the hub's egress; the
// end-of-tick flush transmits it. It returns the grown buffer for the
// caller to retain; s.lastPkt records the wire size.
func (s *session) sendMedia(buf []byte, to net.Addr, m transport.Media) []byte {
	h := s.hub
	for i, v := range h.frame {
		h.pcm[i] = audio.FloatToInt16(v)
	}
	m.Samples = h.pcm
	out, err := s.enc.AppendMedia(buf[:0], m)
	if err != nil {
		s.hub.stats.sendErrs.Add(1)
		s.lastPkt = 0
		return buf
	}
	s.lastPkt = len(out)
	if to != nil {
		h.egress = append(h.egress, transport.Packet{Buf: out, To: to})
	}
	return out
}

// info snapshots the session for the admin plane; SessionInfos calls it
// under the hub's mutex (trace.SessionStat lines are
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
// the trace recorder when the hub records. The per-event log lines are
// formatted only when Config.Logf is set: boxing their arguments costs an
// allocation per event even when nothing prints them.

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
	if logf := s.hub.cfg.Logf; logf != nil {
		logf("hub: session %d: marker at content %d expired unmatched", s.id, content)
	}
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
func (s *session) ISDMeasurement(now float64, m estimator.Measurement) {
	if s.rec != nil {
		s.rec.ISDMeasurement(now, m)
	}
	s.res.Measurements++
	s.hub.stats.measurements.Add(1)
	if s.res.Actions > 0 {
		s.res.PostActionMeasurements++
	}
	if len(s.res.ISDs) == isdKeep {
		s.res.ISDs = s.res.ISDs[:copy(s.res.ISDs, s.res.ISDs[1:])]
	}
	s.res.ISDs = append(s.res.ISDs, m.ISDSeconds)
	s.isdLastMS = m.ISDSeconds * 1000
	if abs := math.Abs(s.isdLastMS); abs > s.isdPeakMS {
		s.isdPeakMS = abs
		s.hub.stats.isdPeakMS.Observe(abs)
	}
	if logf := s.hub.cfg.Logf; logf != nil {
		logf("hub: session %d: ISD measurement %+.1f ms (strength %.0f)", s.id, m.ISDSeconds*1000, m.Strength)
	}
}

// CompensationAction implements serverpipe.EventSink.
func (s *session) CompensationAction(now float64, a compensator.Action) {
	if s.rec != nil {
		s.rec.CompensationAction(now, a)
	}
	s.res.Actions++
	s.hub.stats.actions.Add(1)
	if s.res.Actions == 1 {
		s.res.FirstActionFrames = int(math.Round(a.TotalDelaySeconds() / frameSec))
	}
	if logf := s.hub.cfg.Logf; logf != nil {
		logf("hub: session %d: compensation %v stream insert=%d frames %d samples",
			s.id, a.Stream, a.InsertFrames, a.InsertSamples)
	}
}

// ResampleApplied implements serverpipe.EventSink.
func (s *session) ResampleApplied(now float64, r compensator.Resample) {
	if s.rec != nil {
		s.rec.ResampleApplied(now, r)
	}
	s.res.Resamples++
	s.hub.stats.resamples.Add(1)
	if logf := s.hub.cfg.Logf; logf != nil {
		logf("hub: session %d: resample %v stream rate %+.1f ppm", s.id, r.Stream, r.PPM)
	}
}
