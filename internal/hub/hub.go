// Package hub implements Ekho's multi-tenant session control plane: one
// server process hosting many concurrent, fully independent Ekho
// sessions (each with its own PN schedule, estimator, compensator and
// stream schedulers) behind a single UDP socket.
//
// Architecture:
//
//   - one pace loop owns the socket and the 20 ms media ticks, and runs
//     all session work to completion itself. While sessions stream it
//     wakes once per tick: it ticks every session, then drains what the
//     socket holds, decoding datagrams (native v2 framing or RTP via a
//     pluggable transport.Decoder — see internal/rtp) into one reused
//     batch and handling each before it reads the next. The drain stops
//     when the next tick is due; what it leaves waits in the kernel's
//     receive buffer. During admission it waits on the socket instead, so
//     a Hello is answered at once;
//   - sessions live in one registry, keyed by session ID, and the loop
//     handles each received message as it routes it, in arrival order.
//     One hub mutex serializes the loop with callers on other goroutines
//     (Tick, DispatchBatch, SessionInfos), so per-session pipeline state
//     needs no locking;
//   - admission control caps concurrent sessions (rejecting extra
//     hellos with TypeBusy), idle sessions are reaped by the loop after a
//     timeout, and Drain stops admissions while in-flight sessions finish;
//   - every counter lives in a metrics.Registry (see internal/metrics),
//     so the lock-free stats Snapshot, the /metrics Prometheus endpoint
//     and the /sessions JSON endpoint (RegisterAdmin) all read the same
//     numbers.
//
// Running to completion has one cost: a session whose handling never
// returns stalls every session. A slow one is counted
// (Snapshot.TickOverruns) and the tick grid keeps its phase.
//
// cmd/ekho-server runs a hub on a UDP socket; internal/live's screen and
// controller roles are its demo clients.
package hub

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/gamesynth"
	"ekho/internal/metrics"
	"ekho/internal/pn"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// markerSeed is the PN marker sequence seed every session uses (the demo
// seed).
const markerSeed = 4242

// Logf is a printf-style sink for hub progress output.
type Logf func(format string, args ...any)

// Conn is the datagram endpoint a hub serves on — the batched wire seam:
// it drains a burst of datagrams per wakeup and flushes a burst of sends
// per call, so the whole receive→dispatch→process→send path runs batched
// (one reused batch of decoded messages per poll, one SendBatch per
// tick). *transport.Conn implements it; tests and benchmarks
// substitute an in-process loopback network (NewMemNet).
//
// RecvBatch fills msgs with one blocking read (until deadline) followed
// by short reads until the socket runs dry or the batch fills,
// reusing each slot's payload capacity (transport.DecodeInto). A deadline
// that has already passed polls: it returns only what is queued, possibly
// nothing with a nil error. From may be nil for data-plane packets; it
// must be set for Hello and Bye. SendBatch
// attempts every packet and reports how many were sent plus the first
// error. The hub sends one-off replies (Busy rejects) through SendTo;
// Recv is the per-datagram read the loopback clients sharing this
// interface use. Forget passes an ended session to the wire decoder
// (transport.Decoder.Forget); the hub calls it only from the goroutine
// that calls RecvBatch, which owns the decoder.
type Conn interface {
	RecvBatch(deadline time.Time, msgs []transport.Message) (int, error)
	SendBatch(pkts []transport.Packet) (int, error)
	Recv(deadline time.Time) (transport.Message, error)
	SendTo(b []byte, to net.Addr) error
	Forget(session uint32)
	LocalAddr() net.Addr
	Close() error
}

// Config tunes a hub. The zero value serves 64 sessions with the paper's
// session parameters.
type Config struct {
	// Capacity caps concurrently admitted sessions (default 64).
	Capacity int
	// TickEvery paces media frames (default 20 ms, the wire frame
	// duration). Negative disables the internal ticker: the caller
	// drives pacing via Tick, which is how tests run faster than
	// wall-clock real time.
	TickEvery time.Duration
	// IdleTimeout evicts sessions with no inbound packets (default
	// 30 s). Negative disables reaping.
	IdleTimeout time.Duration
	// MarkerC is the relative marker volume (0 = paper default).
	MarkerC float64
	// Clip selects the corpus clip every session streams.
	Clip int
	// Codec is the chat uplink profile (zero value = SWB32).
	Codec codec.Profile
	// Compensator tunes the per-session feedback loop.
	Compensator compensator.Config
	// RecordDir, when non-empty, captures every session's full timeline
	// to <RecordDir>/session-<id>.ektrace for deterministic replay with
	// cmd/ekho-replay (see internal/trace).
	RecordDir string
	// Logf receives progress lines (nil silences them).
	Logf Logf
	// OnSessionReady fires when a session's screen and controller have
	// both joined and streaming starts. It runs inside the hub's loop
	// (or inside the Dispatch call that handled the Hello) holding the
	// hub's lock, so every session waits while it runs, and it must not
	// call Tick, Dispatch, DispatchBatch, SessionInfos or SessionStats,
	// which take that lock; Stats and DispatchLatency are safe.
	OnSessionReady func(id uint32)
	// OnSessionEnd fires when a session is removed (bye, reap or hub
	// shutdown) with its final result. It runs inside the loop, or in
	// Serve once the loop has stopped, holding the hub's lock: the same
	// rules as OnSessionReady apply.
	OnSessionEnd func(id uint32, r SessionResult)
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.TickEvery == 0 {
		c.TickEvery = 20 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.MarkerC == 0 {
		c.MarkerC = pn.DefaultC
	}
	if c.Codec.Name == "" {
		c.Codec = codec.SWB32
	}
	return c
}

// Hub is a multi-tenant Ekho session server.
type Hub struct {
	cfg   Config
	conn  Conn
	stats counters

	// batch is the pace loop's receive batch, reused every poll: its
	// slots keep their payload capacity (transport.DecodeInto).
	batch []transport.Message

	// mu serializes all session work: the pace loop holds it while it runs
	// ticks, received batches and reaps, never while it sleeps or waits on
	// the socket; Tick, DispatchBatch and SessionInfos take it too. It
	// guards the fields from here to seq.
	mu       sync.Mutex
	sessions map[uint32]*session
	// frame and pcm are the tick scratch: one session's frame is
	// generated, marked, converted and serialized into that session's
	// packet buffer before the next session ticks.
	frame []float64
	pcm   []int16
	// egress queues a tick's outbound datagrams; they leave through one
	// SendBatch per tick.
	egress []transport.Packet
	// ended holds the ids of sessions removed while Serve runs, until the
	// pace loop, which owns the Conn's decoder, forgets their flows.
	ended []uint32
	// game and seq are the clip every session streams and the PN marker
	// template, built on first admission (see media).
	game *audio.Buffer
	seq  *pn.Sequence

	draining atomic.Bool
	served   atomic.Bool
	done     chan struct{}
	closing  sync.Once
}

// batchSize is how many datagrams one receive batch can carry: the pace
// loop drains a tick's chat in a few polls without a heavy batch.
const batchSize = 64

// New returns a hub serving on conn. Call Serve to start it.
func New(cfg Config, conn Conn) *Hub {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	h := &Hub{
		cfg:      cfg,
		conn:     conn,
		stats:    newCounters(reg),
		sessions: make(map[uint32]*session),
		frame:    make([]float64, audio.FrameSamples),
		pcm:      make([]int16, audio.FrameSamples),
		batch:    make([]transport.Message, batchSize),
		done:     make(chan struct{}),
	}
	reg.GaugeFunc("ekho_dispatch_p50_ms", "Median batched dispatch latency (power-of-two resolution).",
		func() float64 { return float64(h.DispatchLatency().Quantile(0.50)) / 1e6 })
	reg.GaugeFunc("ekho_dispatch_p99_ms", "99th percentile batched dispatch latency (power-of-two resolution).",
		func() float64 { return float64(h.DispatchLatency().Quantile(0.99)) / 1e6 })
	return h
}

func (h *Hub) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// media returns the game clip every session streams (Config.Clip) and
// the PN marker template, building both on first use. They are read-only
// and shared by all sessions, so admission cost stays flat, and an idle
// hub does not hold the clip's several MB. The caller holds h.mu.
func (h *Hub) media() (*audio.Buffer, *pn.Sequence) {
	if h.game == nil {
		cat := gamesynth.Catalog()
		h.game = gamesynth.Generate(cat[h.cfg.Clip%len(cat)], gamesynth.ClipSeconds)
		h.seq = pn.NewSequence(markerSeed, pn.DefaultLength)
	}
	return h.game, h.seq
}

// Serve runs the hub until Close: it sizes the socket's receive buffer,
// then runs the pace loop (socket reads, media ticks, idle reaping) in the
// calling goroutine. It returns nil after a clean Close and the socket
// error otherwise. Serve may be called once.
func (h *Hub) Serve() error {
	if !h.served.CompareAndSwap(false, true) {
		return errors.New("hub: Serve called twice")
	}
	h.sizeReadBuffer()
	h.logf("hub: serving on %s (capacity %d)", h.conn.LocalAddr(), h.cfg.Capacity)

	err := h.paceLoop()
	h.Close()
	h.mu.Lock()
	h.flushSessions()
	h.forgetEnded()
	h.mu.Unlock()
	return err
}

// chatRcvbufBytes is what the largest chat datagram, a 7,683-byte
// lossless frame, costs in the kernel's receive buffer, overhead
// included. rcvbufHeadroom is how many ticks of chat from every session
// the buffer holds: the pace loop drains it once per tick, and what a
// drain leaves when the next tick falls due waits there.
const (
	chatRcvbufBytes = 8704
	rcvbufHeadroom  = 4
)

// sizeReadBuffer grows the socket's receive buffer to what
// Config.Capacity needs, when the Conn can (*transport.Conn can); it never
// shrinks a larger buffer. It publishes the size in effect and warns when
// the kernel granted less than needed.
func (h *Hub) sizeReadBuffer() {
	rb, ok := h.conn.(interface {
		ReadBuffer() (int, error)
		SetReadBuffer(int) (int, error)
	})
	if !ok {
		return
	}
	want := rcvbufHeadroom * h.cfg.Capacity * chatRcvbufBytes
	size, err := rb.ReadBuffer()
	if err != nil || size < want {
		size, err = rb.SetReadBuffer(want)
	}
	if err != nil {
		h.logf("hub: %v", err)
		return
	}
	h.stats.rcvbuf.Set(int64(size))
	if size < want {
		h.logf("hub: socket receive buffer is %d B, below the %d B that %d ticks of chat from %d sessions need; raise net.core.rmem_max",
			size, want, rcvbufHeadroom, h.cfg.Capacity)
	}
}

// forgetEnded hands the sessions removed since the last call to the wire
// decoder's Forget. The decoder is the pace loop's, so only that
// goroutine (or Serve, once the loop has stopped) calls this, holding
// h.mu. An id a new session reuses before the call loses only its fresh
// stream's state, which the next packet rebuilds at the same rollover
// count, zero.
func (h *Hub) forgetEnded() {
	for _, id := range h.ended {
		h.conn.Forget(id)
	}
	h.ended = h.ended[:0]
}

// paceLoop owns the socket, the media ticks and idle reaping until the hub
// closes, and runs all of their work to completion itself. It runs on a
// fixed grid of TickEvery ticks. While sessions stream it sleeps to the
// next tick, reads the socket, ticks (so media leaves first), then
// handles what it read and drains the rest: chat waits at most one tick,
// which the estimator, fed in 0.37 s blocks, never notices. The drain stops reading once the next tick is
// due, so the work between two ticks is bounded by the tick, not by the
// offered load. It waits on the socket instead, until the next tick,
// while the hub has no session or a Hello or Bye arrived in the last
// tick, so admission stays prompt; and always when there is no internal
// ticker (TickEvery < 0, the caller ticks). A late wake-up catches up at
// most one overdue tick and skips any older one (Snapshot.TicksSkipped);
// a pass whose work began before the next tick's due time and ended
// after it is counted in Snapshot.TickOverruns.
func (h *Hub) paceLoop() error {
	every := h.cfg.TickEvery
	grid := tickGrid{origin: time.Now(), every: every}
	var due time.Time // when the drain's budget ends; zero without a ticker
	reapEvery := h.reapEvery()
	nextReap := grid.origin.Add(reapEvery)
	sleep := time.NewTimer(time.Hour)
	sleep.Stop()
	defer sleep.Stop()
	// ctrl: a Hello or Bye arrived since the last tick; hot: one arrived
	// in the tick before.
	var ctrl, hot bool
	for {
		if h.isClosed() {
			return nil
		}
		h.mu.Lock()
		h.forgetEnded()
		h.mu.Unlock()
		now := time.Now()
		if reapEvery > 0 && !now.Before(nextReap) {
			h.reapIdle(now)
			nextReap = now.Add(reapEvery)
		}
		if every > 0 {
			due = grid.next()
		}
		// start is when this pass's work began; zero if it did none.
		var start time.Time
		if every > 0 && !now.Before(due) {
			run, skipped := grid.advance(now)
			h.stats.ticksSkipped.Add(skipped)
			hot = ctrl
			c, _, err := h.receive(now, grid.next(), run)
			if err != nil {
				return h.recvErr(err)
			}
			ctrl, start = c, now
		} else {
			wake := now.Add(time.Second)
			if every > 0 {
				wake = due
			}
			if reapEvery > 0 && nextReap.Before(wake) {
				wake = nextReap
			}
			if every > 0 && !hot && !ctrl && h.stats.active.Load() > 0 {
				sleep.Reset(wake.Sub(now))
				select {
				case <-h.done:
					return nil
				case <-sleep.C:
				}
				h.stats.loopWakeups.Inc()
				continue
			}
			c, first, err := h.receive(wake, due, 0)
			h.stats.loopWakeups.Inc()
			ctrl = ctrl || c
			if err != nil {
				return h.recvErr(err)
			}
			start = first
		}
		// Work that began before the next tick was due and ended after it delayed it.
		if every > 0 && !start.IsZero() {
			if next := grid.next(); start.Before(next) && !time.Now().Before(next) {
				h.stats.tickOverruns.Inc()
			}
		}
	}
}

// receive reads the socket into the loop's batch and runs each batch to
// completion before the next read: the first RecvBatch waits until
// deadline (a deadline already passed only polls), and further polls
// follow while batches come back full and due (zero: no limit) has not
// passed. ticks media ticks run after the first read, ahead of its
// packets, so a pass handles the chat that arrived by the tick's due
// time and no more. It reports whether a Hello or Bye arrived and when it
// began handling the first batch (zero if nothing arrived). A deadline
// expiry is not an error.
func (h *Hub) receive(deadline, due time.Time, ticks int) (ctrl bool, first time.Time, err error) {
	for {
		got, err := h.conn.RecvBatch(deadline, h.batch)
		h.mu.Lock()
		h.tick(ticks)
		ticks = 0
		if got > 0 && !h.isClosed() {
			if first.IsZero() {
				first = time.Now()
			}
			ctrl = h.dispatch(h.batch[:got]) || ctrl
		}
		h.mu.Unlock()
		if err != nil && !isTimeout(err) {
			return ctrl, first, err
		}
		if err != nil || got < len(h.batch) {
			return ctrl, first, nil
		}
		if !due.IsZero() && !time.Now().Before(due) {
			return ctrl, first, nil // the rest waits in the kernel for the next tick
		}
		deadline = time.Now()
	}
}

// recvErr maps a receive error to Serve's result: shutdown is clean.
func (h *Hub) recvErr(err error) error {
	if h.isClosed() || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return fmt.Errorf("hub: receive: %w", err)
}

// tickGrid is the pace loop's schedule: tick k is due at origin + k·every.
// It is never re-phased, so a late wake-up cannot shift later ticks.
type tickGrid struct {
	origin time.Time
	every  time.Duration
	k      int64 // the next tick due
}

// next returns when the next tick is due.
func (g *tickGrid) next() time.Time { return g.origin.Add(time.Duration(g.k) * g.every) }

// advance consumes the ticks due at now (at least one). It returns how
// many to run: the tick due now and at most one overdue tick before it.
// Two frames back to back sit well inside a player's jitter buffer, so a
// stall shorter than two ticks costs no frame; a tick never sent would
// leave every player one frame short for good. Older overdue ticks are
// skipped and returned as skipped.
func (g *tickGrid) advance(now time.Time) (run int, skipped int64) {
	due := int64(now.Sub(g.origin) / g.every)
	run = 1
	if due > g.k {
		run = 2
		skipped = due - g.k - 1
	}
	g.k = due + 1
	return run, skipped
}

// Dispatch routes one decoded datagram to its session and handles it,
// admitting the session first if the packet is a Hello: a one-message
// DispatchBatch. The pace loop never calls it; it is exported for
// benchmarks and tests that drive the hub without a socket.
func (h *Hub) Dispatch(msg transport.Message) {
	h.DispatchBatch([]transport.Message{msg})
}

// DispatchBatch routes and handles a batch of decoded datagrams exactly as
// the pace loop handles a receive batch: one stats update and one clock
// read per batch. It returns once every message has been handled, and
// keeps no reference to msgs. It is exported for benchmarks, tests and
// harnesses driving a hub without a socket; it does nothing after Close.
func (h *Hub) DispatchBatch(msgs []transport.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.isClosed() {
		return
	}
	h.dispatch(msgs)
}

// dispatch handles msgs in arrival order: each is routed to its session
// and handled before the next is routed, so a Bye frees its slot and its
// id for a Hello later in the same batch. A Hello for an unknown session
// is admitted first; any other message for one is counted as a stray. It
// reports whether msgs held a Hello or Bye. The caller holds h.mu.
func (h *Hub) dispatch(msgs []transport.Message) (ctrl bool) {
	now := time.Now().UnixNano()
	h.stats.packetsIn.Add(int64(len(msgs)))
	for i := range msgs {
		msg := &msgs[i]
		ctrl = ctrl || msg.Type == transport.TypeHello || msg.Type == transport.TypeBye
		s := h.sessions[msg.Session]
		if s == nil {
			if msg.Type != transport.TypeHello {
				h.stats.strays.Add(1)
				continue
			}
			if s = h.admit(msg); s == nil {
				continue
			}
		}
		s.lastActive = now
		if done := s.handle(msg); done {
			h.remove(s, false)
		}
	}
	h.stats.observeDispatch(time.Now().UnixNano()-now, len(msgs))
	return ctrl
}

// wireEncoder maps a session's latched wire framing onto the shared
// stateless encoder for it. Both encoders are zero-size values, so the
// interface conversion never allocates.
func wireEncoder(w transport.Wire) transport.WireEncoder {
	if w == transport.WireRTP {
		return rtp.Encoder{}
	}
	return transport.V2{}
}

// admit applies admission control for a first Hello. It registers and
// returns the new session, or returns nil after sending a TypeBusy
// reject. The session's wire codec is latched from the Hello's framing:
// every packet the hub sends to this session uses the framing the client
// helloed in.
func (h *Hub) admit(msg *transport.Message) *session {
	active := h.stats.active.Load()
	if h.draining.Load() || active >= int64(h.cfg.Capacity) {
		h.stats.rejected.Add(1)
		busy := wireEncoder(msg.Wire).AppendBusy(nil, transport.Busy{
			Session:  msg.Session,
			Active:   uint32(active),
			Capacity: uint32(h.cfg.Capacity),
		})
		h.send(busy, msg.From)
		h.logf("hub: session %d rejected busy (active %d / capacity %d, draining=%v)",
			msg.Session, active, h.cfg.Capacity, h.draining.Load())
		return nil
	}
	s := h.newSession(msg.Session, msg.Wire)
	h.sessions[s.id] = s
	cur := h.stats.active.Add(1)
	h.stats.peak.BumpMax(cur)
	h.stats.admitted.Add(1)
	h.logf("hub: session %d admitted (%d active, wire %v)", msg.Session, cur, msg.Wire)
	return s
}

// Tick advances every session by one 20 ms media frame and returns once
// every frame is sent. The pace loop ticks on its grid when TickEvery > 0;
// tests call Tick directly to run faster than real time. It does nothing
// after Close.
func (h *Hub) Tick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.isClosed() {
		return
	}
	h.tick(1)
}

// tick runs n media ticks. Each ticks every session and then flushes the
// tick's media, so a tick's frames leave before the next tick's are made.
// The caller holds h.mu.
func (h *Hub) tick(n int) {
	for ; n > 0; n-- {
		for _, s := range h.sessions {
			s.tick()
		}
		h.flushEgress()
	}
}

// flushEgress transmits the queued outbound datagrams in one SendBatch,
// after which the sessions' packet buffers are free for reuse.
func (h *Hub) flushEgress() {
	if len(h.egress) == 0 {
		return
	}
	// The first error is not reported on its own: every failed packet is
	// counted in sendErrs.
	sent, _ := h.conn.SendBatch(h.egress)
	h.stats.packetsOut.Add(int64(sent))
	h.stats.sendErrs.Add(int64(len(h.egress) - sent))
	h.egress = h.egress[:0]
}

// reapEvery is how often the pace loop looks for idle sessions: a quarter
// of IdleTimeout, at least 10 ms; 0 when reaping is off.
func (h *Hub) reapEvery() time.Duration {
	if h.cfg.IdleTimeout <= 0 {
		return 0
	}
	return max(h.cfg.IdleTimeout/4, 10*time.Millisecond)
}

// reapIdle removes every session with no inbound packet for IdleTimeout.
func (h *Hub) reapIdle(now time.Time) {
	cutoff := now.UnixNano() - h.cfg.IdleTimeout.Nanoseconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.sessions {
		if s.lastActive < cutoff {
			h.remove(s, true)
		}
	}
}

// Drain stops admitting new sessions (hellos are rejected with
// TypeBusy) while in-flight sessions keep streaming.
func (h *Hub) Drain() {
	if h.draining.CompareAndSwap(false, true) {
		h.logf("hub: draining: no new sessions admitted")
	}
}

// Shutdown drains the hub, waits up to grace for in-flight sessions to
// finish (Bye or idle reap), then closes it.
func (h *Hub) Shutdown(grace time.Duration) {
	h.Drain()
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) && h.stats.active.Load() > 0 {
		time.Sleep(20 * time.Millisecond)
	}
	h.Close()
}

// Close stops the hub: the pace loop exits, the socket is closed, and
// Serve returns after emitting OnSessionEnd for every session still
// registered.
func (h *Hub) Close() {
	h.closing.Do(func() {
		close(h.done)
		_ = h.conn.Close()
	})
}

func (h *Hub) isClosed() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// flushSessions emits results for sessions still registered at
// shutdown, in session ID order. The caller holds h.mu, so session state
// is quiescent.
func (h *Hub) flushSessions() {
	all := make([]*session, 0, len(h.sessions))
	for _, s := range h.sessions {
		all = append(all, s)
	}
	slices.SortFunc(all, func(a, b *session) int { return cmp.Compare(a.id, b.id) })
	for _, s := range all {
		h.remove(s, false)
	}
}

// remove unregisters a session and emits its result. The caller holds
// h.mu, so the session's pipeline state is quiescent.
func (h *Hub) remove(s *session, reaped bool) {
	if h.sessions[s.id] != s {
		return
	}
	delete(h.sessions, s.id)
	h.stats.active.Add(-1)
	h.stats.ended.Add(1)
	if h.served.Load() {
		// Without Serve no pace loop owns a decoder to forget in.
		h.ended = append(h.ended, s.id)
	}
	if reaped {
		h.stats.reaped.Add(1)
		h.logf("hub: session %d reaped after idle timeout", s.id)
	}
	s.closeRecorder()
	if h.cfg.OnSessionEnd != nil {
		h.cfg.OnSessionEnd(s.id, s.result())
	}
}

// send transmits one encoded datagram, counting outcomes.
func (h *Hub) send(b []byte, to net.Addr) {
	if to == nil {
		return
	}
	if err := h.conn.SendTo(b, to); err != nil {
		h.stats.sendErrs.Add(1)
		return
	}
	h.stats.packetsOut.Add(1)
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
