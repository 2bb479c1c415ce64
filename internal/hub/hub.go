// Package hub implements Ekho's multi-tenant session control plane: one
// server process hosting many concurrent, fully independent Ekho
// sessions (each with its own PN schedule, estimator, compensator and
// stream schedulers) behind a single UDP socket.
//
// Architecture:
//
//   - the receive loop decodes datagrams (native v2 framing or RTP via
//     a pluggable transport.Decoder — see internal/rtp) and
//     demultiplexes them by session ID onto a sharded session registry:
//     per-shard mutex + map, sessions pinned to shards by ID hash; each
//     session replies in whatever framing its Hello arrived in;
//   - each shard has one worker goroutine that executes all packet
//     handling, DSP and compensation for its sessions, so different
//     sessions never contend on one lock and per-session pipeline state
//     needs no locking at all;
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

	"ekho"
	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/gamesynth"
	"ekho/internal/metrics"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// Logf is a printf-style sink for hub progress output.
type Logf func(format string, args ...any)

// Conn is the datagram endpoint a hub serves on — the batched wire seam:
// it drains a burst of datagrams per wakeup and flushes a burst of sends
// per call, so the whole receive→dispatch→process→send path runs batched
// (packet arenas amortize decoding, shard workers wake once per batch, and
// per-shard egress queues flush through SendBatch). *transport.Conn
// implements it; tests and benchmarks substitute an in-process loopback
// network (NewMemNet).
//
// RecvBatch fills msgs with one blocking read (until deadline) followed
// by greedy reads until the socket runs dry or the batch fills, reusing
// each slot's payload capacity (transport.DecodeInto). From may be nil
// for data-plane packets; it must be set for Hello and Bye. SendBatch
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
	// (counted in Snapshot.Shed) instead of blocking the receive loop.
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
	Compensator ekho.CompensatorConfig
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
		c.MarkerC = ekho.DefaultMarkerVolume
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

	// arenaFree recycles receive batch arenas between the receive loop
	// and the shard workers.
	arenaFree chan *recvArena

	// coarse is the hub's coarse wall clock (UnixNano), refreshed once
	// per receive batch, media tick and reap probe instead of per packet.
	// lastActive stamps and the reap cutoff read it, trading per-packet
	// time.Now() calls for at most one reap-probe interval of slack.
	coarse atomic.Int64

	// ended holds the ids of sessions removed while Serve runs, until the
	// receive loop, which owns the Conn's decoder, forgets their flows.
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
	seq    *ekho.MarkerSequence
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
	h.coarse.Store(time.Now().UnixNano())
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		h.shards[i] = &shard{
			sessions: make(map[uint32]*session),
			queue:    make(chan work, cfg.QueueDepth),
			ctrl:     make(chan work, ctrlDepth),
			cPackets: reg.Counter(fmt.Sprintf(`ekho_shard_packets_total{shard="%d"}`, i),
				"Data-plane packets enqueued per shard."),
			cShed: reg.Counter(fmt.Sprintf(`ekho_shard_shed_total{shard="%d"}`, i),
				"Data-plane packets shed per shard."),
			cSessions: reg.Gauge(fmt.Sprintf(`ekho_shard_sessions{shard="%d"}`, i),
				"Live sessions pinned per shard."),
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
func (h *Hub) markerSeq() *ekho.MarkerSequence {
	h.seqOne.Do(func() { h.seq = ekho.NewMarkerSequence(h.cfg.Seed) })
	return h.seq
}

// Serve runs the hub until Close: it starts the shard workers, the media
// ticker and the idle reaper, then demultiplexes inbound datagrams in
// the calling goroutine. It returns nil after a clean Close and the
// socket error otherwise. Serve may be called once.
func (h *Hub) Serve() error {
	if !h.served.CompareAndSwap(false, true) {
		return errors.New("hub: Serve called twice")
	}
	for _, sh := range h.shards {
		h.wg.Add(1)
		go h.worker(sh)
	}
	if h.cfg.TickEvery > 0 {
		h.wg.Add(1)
		go h.tickLoop()
	}
	if h.cfg.IdleTimeout > 0 {
		h.wg.Add(1)
		go h.reapLoop()
	}
	h.logf("hub: serving on %s (capacity %d, %d shards)",
		h.conn.LocalAddr(), h.cfg.Capacity, h.cfg.Shards)

	err := h.recvLoopBatch()
	h.Close()
	h.wg.Wait()
	h.forgetEnded()
	h.flushSessions()
	return err
}

// forgetEnded hands the sessions removed since the last call to the wire
// decoder's Forget. Shard workers remove sessions, but the decoder is the
// receive loop's, so the ids wait in h.ended until that goroutine (or
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

// recvLoopBatch drains the socket in batches until the hub closes: each
// wakeup fills a packet arena, then hands every shard its sub-batch in one
// queue operation. Socket errors other than shutdown and deadline expiry
// are propagated.
func (h *Hub) recvLoopBatch() error {
	for {
		h.forgetEnded()
		a := h.takeArena()
		if a == nil {
			return nil // hub closed while all arenas were in flight
		}
		n, err := h.conn.RecvBatch(time.Now().Add(time.Second), a.msgs)
		if err != nil && n == 0 {
			h.arenaFree <- a
			if h.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isTimeout(err) {
				h.coarse.Store(time.Now().UnixNano())
				continue
			}
			return fmt.Errorf("hub: receive: %w", err)
		}
		if h.isClosed() {
			h.arenaFree <- a
			return nil
		}
		h.dispatchArena(a, n)
	}
}

// Dispatch routes one decoded datagram to its session's shard worker,
// admitting the session first if the packet is a Hello. The receive loop
// never calls it (it dispatches whole arenas); it is exported for
// benchmarks and tests that drive the hub one packet at a time without a
// socket.
func (h *Hub) Dispatch(msg transport.Message) {
	h.stats.packetsIn.Add(1)
	sh := h.shards[shardIndex(msg.Session, len(h.shards))]
	s := h.route(sh, &msg)
	if s == nil {
		return
	}
	s.lastActive.Store(h.coarse.Load())
	sh.cPackets.Inc()
	h.enqueue(sh, work{kind: workPacket, msg: msg, s: s})
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

// DispatchBatch routes a batch of decoded datagrams with the batched
// path's cost profile: one stats update, one coarse-clock read and one
// queue operation per shard sub-batch. The messages' struct fields are
// copied into an arena, but their backing arrays are shared with the
// caller until the workers finish the batch — like Dispatch, this is
// exported for benchmarks, tests and harnesses driving a hub without a
// socket, which own that lifetime.
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
// queue is full its sub-batch is shed instead of blocking the receive
// loop: one slow shard drops its own media, not everyone's.
func (h *Hub) dispatchArena(a *recvArena, n int) {
	now := time.Now().UnixNano()
	h.coarse.Store(now)
	h.stats.packetsIn.Add(int64(n))
	a.pending.Store(1) // dispatch hold
	for i := range a.msgs[:n] {
		msg := &a.msgs[i]
		si := shardIndex(msg.Session, len(h.shards))
		sh := h.shards[si]
		s := h.route(sh, msg)
		if s == nil {
			continue
		}
		s.lastActive.Store(now)
		switch msg.Type {
		case transport.TypeHello, transport.TypeBye:
			// Control lane: a struct copy (control packets carry no
			// payload slices), so delivery never pins the arena.
			select {
			case sh.ctrl <- work{kind: workPacket, msg: *msg, s: s}:
			default:
				h.stats.ctrlDropped.Add(1)
			}
		default:
			a.perShard[si] = append(a.perShard[si], packetWork{m: msg, s: s})
		}
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

// Tick advances every session by one 20 ms media frame. The internal
// ticker calls it when TickEvery > 0; tests drive it directly to run
// faster than real time. Enqueueing blocks when a shard worker is
// saturated, so pacing degrades gracefully instead of queueing
// unboundedly.
func (h *Hub) Tick() {
	h.coarse.Store(time.Now().UnixNano())
	for _, sh := range h.shards {
		h.enqueue(sh, work{kind: workTick})
	}
}

func (h *Hub) tickLoop() {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-t.C:
			h.Tick()
		}
	}
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
			// Refresh the coarse clock at the probe so lastActive stamps
			// written from here on are at least probe-fresh; the stamp
			// slack is therefore bounded by one probe interval, a
			// quarter of the timeout being enforced.
			now := time.Now().UnixNano()
			h.coarse.Store(now)
			cutoff := now - h.cfg.IdleTimeout.Nanoseconds()
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
