// Package hub implements Ekho's multi-tenant session control plane: one
// server process hosting many concurrent, fully independent Ekho
// sessions (each with its own PN schedule, estimator, compensator and
// stream schedulers) behind a single UDP socket.
//
// Architecture:
//
//   - one pace loop owns the socket and the 20 ms media ticks. While
//     sessions stream it wakes once per tick: it ticks every session,
//     then drains what the socket holds, decoding datagrams (native
//     v2 framing or RTP via a pluggable transport.Decoder — see
//     internal/rtp) and demultiplexing them by session ID onto a sharded
//     session registry: per-shard mutex + map, sessions pinned to shards
//     by ID hash; each session replies in whatever framing its Hello
//     arrived in. During admission it waits on the socket instead, so a
//     Hello is answered at once. It never waits on a shard worker: a
//     shard whose queue is full misses ticks and sheds its own data;
//   - each shard has one worker goroutine that executes all packet
//     handling, DSP and compensation for its sessions, so different
//     sessions never contend on one lock and per-session pipeline state
//     needs no locking at all. It wakes about once per tick;
//   - admission control caps concurrent sessions (rejecting extra
//     hellos with TypeBusy), idle sessions are reaped after a timeout,
//     and Drain stops admissions while in-flight sessions finish;
//   - every counter lives in a metrics.Registry (see internal/metrics),
//     so the lock-free stats Snapshot, the /metrics Prometheus endpoint
//     and the /sessions JSON endpoint (RegisterAdmin) all read the same
//     numbers.
//
// The single-session demo server (internal/live.RunServer) is a
// capacity-1 hub; cmd/ekho-server runs an unrestricted one.
package hub

import (
	"errors"
	"fmt"
	"net"
	"os"
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

// Logf is a printf-style sink for hub progress output.
type Logf func(format string, args ...any)

// Conn is the datagram endpoint a hub serves on — the batched wire seam:
// it drains a burst of datagrams per wakeup and flushes a burst of sends
// per call, so the whole receive→dispatch→process→send path runs batched
// (packet arenas amortize decoding, shard workers wake about once per
// tick, and per-shard egress queues flush through SendBatch).
// *transport.Conn implements it; tests and benchmarks substitute an
// in-process loopback network (NewMemNet).
//
// RecvBatch fills msgs with one blocking read (until deadline) followed
// by short reads until the socket runs dry or the batch fills,
// reusing each slot's payload capacity (transport.DecodeInto). A deadline
// that has already passed polls: it returns only what is queued, possibly
// nothing with a nil error. From may be nil for data-plane packets; it
// must be set for Hello and Bye. SendBatch
// attempts every packet and reports how many were sent plus the first
// error. The hub itself sends one-off replies outside a shard's egress
// queue (Busy rejects) through SendTo; Recv is the per-datagram read the
// loopback clients sharing this interface use. Forget passes an ended
// session to the wire decoder (transport.Decoder.Forget); the hub calls it
// only from the goroutine that calls RecvBatch, which owns the decoder.
type Conn interface {
	RecvBatch(deadline time.Time, msgs []transport.Message) (int, error)
	SendBatch(pkts []transport.Packet) (int, error)
	Recv(deadline time.Time) (transport.Message, error)
	SendTo(b []byte, to net.Addr) error
	Forget(session uint32)
	LocalAddr() net.Addr
	Close() error
}

// Config tunes a hub. The zero value serves 64 sessions on 8 shards
// with the paper's session parameters.
type Config struct {
	// Capacity caps concurrently admitted sessions (default 64).
	Capacity int
	// Shards sets the registry stripe / worker goroutine count
	// (default 8).
	Shards int
	// QueueDepth bounds each shard's work queue (default 256 entries;
	// one entry is a whole receive sub-batch, not a packet). When a
	// shard's queue is full, incoming data-plane packets for it are shed
	// (counted in Snapshot.Shed) instead of blocking the pace loop.
	QueueDepth int
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
	// Seed is the PN marker sequence seed (0 = 4242, the demo seed).
	Seed int64
	// Codec is the chat uplink profile (zero value = SWB32).
	Codec codec.Profile
	// Compensator tunes the per-session feedback loop.
	Compensator compensator.Config
	// RecordDir, when non-empty, captures every session's full timeline
	// to <RecordDir>/session-<id>.ektrace for deterministic replay with
	// cmd/ekho-replay (see internal/trace).
	RecordDir string
	// Metrics is the registry the hub publishes its counters into (nil =
	// a private registry; read it back with Hub.Metrics). Sharing one
	// registry lets an embedder co-host its own metrics on the same
	// /metrics endpoint.
	Metrics *metrics.Registry
	// Logf receives progress lines (nil silences them).
	Logf Logf
	// OnSessionReady fires (from a shard worker) when a session's
	// screen and controller have both joined and streaming starts.
	OnSessionReady func(id uint32)
	// OnSessionEnd fires when a session is removed (bye, reap or hub
	// shutdown) with its final result.
	OnSessionEnd func(id uint32, r SessionResult)
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
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
	if c.Seed == 0 {
		c.Seed = 4242
	}
	if c.Codec.Name == "" {
		c.Codec = codec.SWB32
	}
	return c
}

// Hub is a multi-tenant Ekho session server.
type Hub struct {
	cfg    Config
	conn   Conn
	shards []*shard
	stats  counters

	// arenaFree recycles receive batch arenas between the pace loop and
	// the shard workers.
	arenaFree chan *recvArena

	// ended holds the ids of sessions removed while Serve runs, until the
	// pace loop, which owns the Conn's decoder, forgets their flows.
	endedMu sync.Mutex
	ended   []uint32

	draining atomic.Bool
	served   atomic.Bool
	done     chan struct{}
	closing  sync.Once
	wg       sync.WaitGroup

	clipMu sync.Mutex
	clips  map[int]*audio.Buffer
	seqOne sync.Once
	seq    *pn.Sequence
}

// New returns a hub serving on conn. Call Serve to start it.
func New(cfg Config, conn Conn) *Hub {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h := &Hub{
		cfg:   cfg,
		conn:  conn,
		stats: newCounters(reg),
		done:  make(chan struct{}),
		clips: make(map[int]*audio.Buffer),
	}
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		h.shards[i] = &shard{
			sessions: make(map[uint32]*session),
			queue:    make(chan work, cfg.QueueDepth),
			ctrl:     make(chan work, ctrlDepth),
			frame:    make([]float64, audio.FrameSamples),
			pcm:      make([]int16, audio.FrameSamples),
			cPackets: reg.Counter(fmt.Sprintf(`ekho_shard_packets_total{shard="%d"}`, i),
				"Data-plane packets enqueued per shard."),
			cShed: reg.Counter(fmt.Sprintf(`ekho_shard_shed_total{shard="%d"}`, i),
				"Data-plane packets shed per shard."),
			cSessions: reg.Gauge(fmt.Sprintf(`ekho_shard_sessions{shard="%d"}`, i),
				"Live sessions pinned per shard."),
			cWakeups: reg.Counter(fmt.Sprintf(`ekho_shard_wakeups_total{shard="%d"}`, i),
				"Shard worker wake-ups from an empty queue."),
		}
	}
	reg.GaugeFunc("ekho_dispatch_p50_ms", "Median batched dispatch latency (power-of-two resolution).",
		func() float64 { return float64(h.DispatchLatency().Quantile(0.50)) / 1e6 })
	reg.GaugeFunc("ekho_dispatch_p99_ms", "99th percentile batched dispatch latency (power-of-two resolution).",
		func() float64 { return float64(h.DispatchLatency().Quantile(0.99)) / 1e6 })
	h.arenaFree = make(chan *recvArena, numArenas)
	for i := 0; i < numArenas; i++ {
		h.arenaFree <- newRecvArena(h)
	}
	return h
}

func (h *Hub) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

func (h *Hub) codecProfile() codec.Profile { return h.cfg.Codec }

// clip returns the (cached) game-audio buffer for a corpus index; all
// sessions share one read-only buffer so admission cost stays flat.
func (h *Hub) clip(idx int) *audio.Buffer {
	h.clipMu.Lock()
	defer h.clipMu.Unlock()
	if b, ok := h.clips[idx]; ok {
		return b
	}
	b := gamesynth.Generate(gamesynth.Catalog()[idx%len(gamesynth.Catalog())], gamesynth.ClipSeconds)
	h.clips[idx] = b
	return b
}

// markerSeq returns the shared, read-only PN marker template.
func (h *Hub) markerSeq() *pn.Sequence {
	h.seqOne.Do(func() { h.seq = pn.NewSequence(h.cfg.Seed, pn.DefaultLength) })
	return h.seq
}

// Serve runs the hub until Close: it starts the shard workers and the
// idle reaper, sizes the socket's receive buffer, then runs the pace loop
// (socket reads and media ticks) in the calling goroutine. It returns nil
// after a clean Close and the socket error otherwise. Serve may be called
// once.
func (h *Hub) Serve() error {
	if !h.served.CompareAndSwap(false, true) {
		return errors.New("hub: Serve called twice")
	}
	for _, sh := range h.shards {
		h.wg.Add(1)
		go h.worker(sh)
	}
	if h.cfg.IdleTimeout > 0 {
		h.wg.Add(1)
		go h.reapLoop()
	}
	h.sizeReadBuffer()
	h.logf("hub: serving on %s (capacity %d, %d shards)",
		h.conn.LocalAddr(), h.cfg.Capacity, h.cfg.Shards)

	err := h.paceLoop()
	h.Close()
	h.wg.Wait()
	h.forgetEnded()
	h.flushSessions()
	return err
}

// chatRcvbufBytes is what the largest chat datagram, a 7,683-byte
// lossless frame, costs in the kernel's receive buffer, overhead
// included. rcvbufHeadroom is how many ticks of chat from every session
// the buffer holds: the pace loop drains it once per tick.
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
// decoder's Forget. Shard workers remove sessions, but the decoder is the
// pace loop's, so the ids wait in h.ended until that goroutine (or
// Serve, once every worker has stopped) calls this. An id a new session
// reuses before the drain loses only its fresh stream's state, which the
// next packet rebuilds at the same rollover count, zero.
func (h *Hub) forgetEnded() {
	h.endedMu.Lock()
	ids := h.ended
	h.ended = nil
	h.endedMu.Unlock()
	for _, id := range ids {
		h.conn.Forget(id)
	}
}

// paceLoop owns the socket and the media ticks until the hub closes. It
// runs on a fixed grid of TickEvery ticks. While sessions stream it sleeps
// to the next tick, ticks (so media leaves first), then drains what the
// socket holds: chat waits at most one tick, which the estimator, fed in
// 0.37 s blocks, never notices. It waits on the socket instead, until the
// next tick, while the hub has no session or a Hello or Bye arrived in the
// last tick, so admission stays prompt; and always when there is no
// internal ticker (TickEvery < 0, the caller ticks). The loop never waits
// on a shard worker: a shard whose queue is full misses the tick, so one
// wedged shard cannot stop the socket being read for the others. A late
// wake-up catches up at most one overdue tick and skips any older one.
// Both kinds of miss are counted in Snapshot.TicksSkipped.
func (h *Hub) paceLoop() error {
	every := h.cfg.TickEvery
	grid := tickGrid{origin: time.Now(), every: every}
	sleep := time.NewTimer(time.Hour)
	sleep.Stop()
	defer sleep.Stop()
	// ctrl: a Hello or Bye arrived since the last tick; hot: one arrived
	// in the tick before.
	var ctrl, hot bool
	for {
		h.forgetEnded()
		if h.isClosed() {
			return nil
		}
		now := time.Now()
		if every > 0 && !now.Before(grid.next()) {
			run, skipped := grid.advance(now)
			h.stats.ticksSkipped.Add(skipped)
			for ; run > 0; run-- {
				if !h.tick(false) {
					h.stats.ticksSkipped.Inc()
				}
			}
			hot = ctrl
			var err error
			if ctrl, err = h.receive(now); err != nil {
				return h.recvErr(err)
			}
			continue
		}
		if every > 0 && !hot && !ctrl && h.stats.active.Load() > 0 {
			sleep.Reset(grid.next().Sub(now))
			select {
			case <-h.done:
				return nil
			case <-sleep.C:
			}
			h.stats.loopWakeups.Inc()
			continue
		}
		deadline := now.Add(time.Second)
		if every > 0 {
			deadline = grid.next()
		}
		c, err := h.receive(deadline)
		h.stats.loopWakeups.Inc()
		ctrl = ctrl || c
		if err != nil {
			return h.recvErr(err)
		}
	}
}

// receive reads the socket into arenas and dispatches them: the first
// RecvBatch waits until deadline (a deadline already passed only polls),
// and further polls follow while batches come back full. It reports
// whether a Hello or Bye arrived. A deadline expiry is not an error.
func (h *Hub) receive(deadline time.Time) (ctrl bool, err error) {
	for {
		a := h.takeArena()
		if a == nil {
			return ctrl, net.ErrClosed // hub closed while all arenas were in flight
		}
		n, err := h.conn.RecvBatch(deadline, a.msgs)
		if n > 0 && !h.isClosed() {
			ctrl = h.dispatchArena(a, n) || ctrl
		} else {
			h.arenaFree <- a
		}
		if err != nil && !isTimeout(err) {
			return ctrl, err
		}
		if err != nil || n < len(a.msgs) {
			return ctrl, nil
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

// Dispatch routes one decoded datagram to its session's shard worker,
// admitting the session first if the packet is a Hello: a one-message
// DispatchBatch, with the same lifetime rule. The pace loop never calls
// it; it is exported for benchmarks and tests that drive the hub without
// a socket.
func (h *Hub) Dispatch(msg transport.Message) {
	h.DispatchBatch([]transport.Message{msg})
}

// route resolves a packet to its session, admitting on Hello and
// counting strays. It returns nil when the packet needs no worker.
func (h *Hub) route(sh *shard, msg *transport.Message) *session {
	s := sh.lookup(msg.Session)
	if s == nil {
		if msg.Type != transport.TypeHello {
			h.stats.strays.Add(1)
			return nil
		}
		if s = h.admit(sh, *msg); s == nil {
			return nil
		}
	}
	return s
}

// DispatchBatch routes a batch of decoded datagrams exactly as the pace
// loop routes a receive batch: one stats update, one clock read and one
// queue operation per shard sub-batch. The messages' struct fields are
// copied into an arena, but their backing arrays are shared with the
// caller until the workers finish the batch — it is exported for
// benchmarks, tests and harnesses driving a hub without a socket, which
// own that lifetime.
func (h *Hub) DispatchBatch(msgs []transport.Message) {
	for len(msgs) > 0 {
		a := h.takeArena()
		if a == nil {
			return
		}
		n := copy(a.msgs, msgs)
		msgs = msgs[n:]
		h.dispatchArena(a, n)
	}
}

// dispatchArena routes the first n decoded messages of an arena: data
// packets are staged into per-shard sub-batches delivered with one
// channel send each; control packets (Hello/Bye) travel on the shard's
// control lane so they survive data-plane overload. When a shard's
// queue is full its sub-batch is shed instead of blocking the pace loop:
// one slow shard drops its own media, not everyone's. It reports whether
// the arena held a Hello or Bye.
func (h *Hub) dispatchArena(a *recvArena, n int) (ctrl bool) {
	now := time.Now().UnixNano()
	h.stats.packetsIn.Add(int64(n))
	a.pending.Store(1) // dispatch hold
	for i := range a.msgs[:n] {
		msg := &a.msgs[i]
		si := shardIndex(msg.Session, len(h.shards))
		sh := h.shards[si]
		s := h.route(sh, msg)
		isCtrl := msg.Type == transport.TypeHello || msg.Type == transport.TypeBye
		ctrl = ctrl || isCtrl
		if s == nil {
			continue
		}
		s.lastActive.Store(now)
		if isCtrl {
			// Control lane: a struct copy (control packets carry no
			// payload slices), so delivery never pins the arena.
			select {
			case sh.ctrl <- work{kind: workPacket, msg: *msg, s: s}:
			default:
				h.stats.ctrlDropped.Add(1)
			}
			continue
		}
		a.perShard[si] = append(a.perShard[si], packetWork{m: msg, s: s})
	}
	for si, items := range a.perShard {
		if len(items) == 0 {
			continue
		}
		sh := h.shards[si]
		a.pending.Add(1)
		select {
		case sh.queue <- work{kind: workBatch, items: items, arena: a, stamp: now}:
			sh.cPackets.Add(int64(len(items)))
		default:
			// Overload: shed this shard's data sub-batch.
			h.stats.shed.Add(int64(len(items)))
			sh.cShed.Add(int64(len(items)))
			a.perShard[si] = items[:0]
			a.pending.Add(-1)
		}
	}
	a.release() // drop the dispatch hold
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

// admit applies admission control for a first Hello. It returns the new
// session, or nil after sending a TypeBusy reject. The session's wire
// codec is latched from the Hello's framing: every packet the hub sends
// to this session uses the framing the client helloed in.
func (h *Hub) admit(sh *shard, msg transport.Message) *session {
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
	s := h.newSession(sh, msg.Session, msg.Wire)
	if !sh.insert(s) {
		// Lost a (benchmark-only) race with another dispatcher; use the
		// session that won.
		return sh.lookup(msg.Session)
	}
	cur := h.stats.active.Add(1)
	sh.cSessions.Add(1)
	h.stats.peak.BumpMax(cur)
	h.stats.admitted.Add(1)
	h.logf("hub: session %d admitted (%d active, wire %v)", msg.Session, cur, msg.Wire)
	return s
}

// Tick advances every session by one 20 ms media frame. The pace loop
// ticks on its grid when TickEvery > 0; tests call Tick directly to run
// faster than real time. Shards without sessions are skipped. Tick blocks
// while a shard's queue is full, so a caller ticking faster than the
// workers keep up is held back instead of losing frames.
func (h *Hub) Tick() { h.tick(true) }

// tick enqueues one media tick on every shard with sessions. With wait it
// blocks while a shard's queue is full; without (the pace loop, which must
// keep reading the socket for every shard) that shard misses the tick,
// and tick reports false.
func (h *Hub) tick(wait bool) (all bool) {
	all = true
	for _, sh := range h.shards {
		if sh.cSessions.Load() == 0 {
			continue
		}
		if wait {
			h.enqueue(sh, work{kind: workTick})
			continue
		}
		select {
		case sh.queue <- work{kind: workTick}:
		default:
			all = false
		}
	}
	return all
}

// reapLoop periodically probes for idle sessions. Eviction happens on
// the shard worker (a reap work item) so session state stays
// single-threaded; the probe carries the observed lastActive and the
// worker aborts the eviction if traffic arrived in between.
func (h *Hub) reapLoop() {
	defer h.wg.Done()
	every := h.cfg.IdleTimeout / 4
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-t.C:
			cutoff := time.Now().UnixNano() - h.cfg.IdleTimeout.Nanoseconds()
			for _, sh := range h.shards {
				var stale []work
				sh.mu.Lock()
				for id, s := range sh.sessions {
					if last := s.lastActive.Load(); last < cutoff {
						stale = append(stale, work{kind: workReap, id: id, seen: last})
					}
				}
				sh.mu.Unlock()
				for _, w := range stale {
					h.enqueue(sh, w)
				}
			}
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

// Close stops the hub: workers, ticker and reaper exit, the socket is
// closed, and Serve returns after emitting OnSessionEnd for every
// session still registered.
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
// shutdown. Workers have already stopped, so session state is
// quiescent.
func (h *Hub) flushSessions() {
	for _, sh := range h.shards {
		sh.mu.Lock()
		ss := make([]*session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			ss = append(ss, s)
		}
		sh.sessions = make(map[uint32]*session)
		sh.mu.Unlock()
		for _, s := range ss {
			h.stats.active.Add(-1)
			sh.cSessions.Add(-1)
			h.stats.ended.Add(1)
			s.closeRecorder()
			if h.cfg.OnSessionEnd != nil {
				h.cfg.OnSessionEnd(s.id, s.result())
			}
		}
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
