package hub

import (
	"runtime"
	"sync"
	"time"

	"ekho/internal/metrics"
	"ekho/internal/transport"
)

// ctrlDepth bounds each shard's control lane. Control packets are rare
// (a few per session lifetime), so this only fills when a shard is
// wedged while a client retries hellos — at which point dropping them is
// the UDP-shaped answer.
const ctrlDepth = 64

// A shard owns a stripe of the session registry plus the single worker
// goroutine that executes all DSP and compensation for its sessions.
// Sessions are pinned to shards by ID hash, so two sessions on different
// shards never contend on a lock or serialize behind each other's
// estimator work; within a shard the worker provides the serialization
// that the per-session pipeline state requires.
type shard struct {
	mu       sync.Mutex
	sessions map[uint32]*session
	// queue carries the data plane: batches of packets, ticks, reap
	// probes. When it is full, new data packets for this shard are shed.
	queue chan work
	// ctrl carries Hello/Bye packets with priority over queued data, so
	// session control survives data-plane overload.
	ctrl chan work
	// scratch is the worker-owned reusable slice for tick fan-out.
	scratch []*session
	// frame and pcm are the worker's tick scratch: one session's frame is
	// generated, marked, converted and serialized into that session's
	// packet buffer before the next session ticks.
	frame []float64
	pcm   []int16
	// egress queues this shard's outbound datagrams during a work item;
	// the worker flushes it through SendBatch once per batch/tick.
	egress []transport.Packet
	// cPackets / cShed / cSessions are this shard's labeled registry
	// metrics (`{shard="i"}`), updated once per sub-batch so the /metrics
	// per-shard breakdown costs one atomic per shard per receive batch.
	cPackets  *metrics.Counter
	cShed     *metrics.Counter
	cSessions *metrics.Gauge
	// cWakeups counts the worker's returns from parking on an empty queue.
	cWakeups *metrics.Counter
}

type workKind uint8

const (
	workPacket workKind = iota
	workBatch
	workTick
	workReap
	workStats
)

// work is one unit handed to a shard worker: a batch of data packets, a
// single control packet (workPacket, on the control lane), a media tick
// for every session in the shard, a reap probe or a stats request.
type work struct {
	kind workKind
	msg  transport.Message
	s    *session
	// items/arena/stamp carry a receive sub-batch: the packets, the
	// arena to release afterwards, and the dispatch time (UnixNano) that
	// feeds the dispatch-latency histogram.
	items []packetWork
	arena *recvArena
	stamp int64
	// id/seen carry the reap probe: the session to evict and the
	// lastActive value the reaper observed (the eviction is aborted if a
	// packet arrived in between).
	id   uint32
	seen int64
	// stats receives the shard's per-session snapshots (workStats): the
	// worker owns session state, so snapshots are taken on it and the
	// requester waits on this channel.
	stats chan<- []SessionInfo
}

// shardIndex pins a session ID to a shard. Session IDs are arbitrary
// client-chosen u32s, so mix the bits before reducing.
func shardIndex(id uint32, shards int) int {
	h := id
	h ^= h >> 16
	h *= 0x45d9f3b
	h ^= h >> 16
	return int(h % uint32(shards))
}

// lookup returns the session currently registered under id, or nil.
func (sh *shard) lookup(id uint32) *session {
	sh.mu.Lock()
	s := sh.sessions[id]
	sh.mu.Unlock()
	return s
}

// insert registers a session; it reports false if the id is taken.
func (sh *shard) insert(s *session) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.sessions[s.id]; ok {
		return false
	}
	sh.sessions[s.id] = s
	return true
}

// enqueue hands work to the shard's worker, blocking if the queue is
// full (backpressure: the UDP socket buffer is the drop point, not a
// user-space queue). It reports false if the hub shut down instead.
func (h *Hub) enqueue(sh *shard, w work) bool {
	select {
	case sh.queue <- w:
		return true
	case <-h.done:
		return false
	}
}

// worker runs a shard's processing loop until the hub closes. Control
// work is polled first each round so Hello/Bye overtake queued data
// batches when both are pending. Only when both queues are empty does the
// worker park; each return from parking counts as a wake-up. After a tick
// the worker yields once: the pace loop dispatches a tick's chat right
// behind the tick, and on a single core the yield lets every shard send
// its media before any shard spends the tick on chat.
func (h *Hub) worker(sh *shard) {
	defer h.wg.Done()
	for {
		select {
		case w := <-sh.ctrl:
			h.process(sh, w)
			continue
		default:
		}
		var w work
		select {
		case w = <-sh.queue:
		default:
			select {
			case <-h.done:
				return
			case w = <-sh.ctrl:
			case w = <-sh.queue:
			}
			sh.cWakeups.Inc()
		}
		h.process(sh, w)
		if w.kind == workTick {
			runtime.Gosched()
		}
	}
}

// process executes one work item on the shard worker and flushes any
// egress it queued.
func (h *Hub) process(sh *shard, w work) {
	switch w.kind {
	case workPacket:
		if done := w.s.handle(&w.msg); done {
			h.remove(sh, w.s, false)
		}
	case workBatch:
		h.stats.observeDispatch(time.Now().UnixNano()-w.stamp, len(w.items))
		for _, pw := range w.items {
			if done := pw.s.handle(pw.m); done {
				h.remove(sh, pw.s, false)
			}
		}
		w.arena.release()
	case workTick:
		sh.mu.Lock()
		sh.scratch = sh.scratch[:0]
		for _, s := range sh.sessions {
			sh.scratch = append(sh.scratch, s)
		}
		sh.mu.Unlock()
		for _, s := range sh.scratch {
			s.tick()
		}
	case workReap:
		s := sh.lookup(w.id)
		if s != nil && s.lastActive.Load() == w.seen {
			h.remove(sh, s, true)
		}
	case workStats:
		sh.mu.Lock()
		sh.scratch = sh.scratch[:0]
		for _, s := range sh.sessions {
			sh.scratch = append(sh.scratch, s)
		}
		sh.mu.Unlock()
		infos := make([]SessionInfo, 0, len(sh.scratch))
		for _, s := range sh.scratch {
			infos = append(infos, s.info())
		}
		w.stats <- infos
	}
	h.flushEgress(sh)
}

// flushEgress transmits the shard's queued outbound datagrams in one
// SendBatch. Called only on the shard's worker, after which the
// sessions' packet buffers are free to be reused.
func (h *Hub) flushEgress(sh *shard) {
	if len(sh.egress) == 0 {
		return
	}
	// The first error is not reported on its own: every failed packet is
	// counted in sendErrs.
	sent, _ := h.conn.SendBatch(sh.egress)
	h.stats.packetsOut.Add(int64(sent))
	h.stats.sendErrs.Add(int64(len(sh.egress) - sent))
	sh.egress = sh.egress[:0]
}

// remove unregisters a session and emits its result. Called only from
// the shard's worker (or from shutdown after workers stopped), so the
// session's pipeline state is quiescent.
func (h *Hub) remove(sh *shard, s *session, reaped bool) {
	sh.mu.Lock()
	cur, ok := sh.sessions[s.id]
	if ok && cur == s {
		delete(sh.sessions, s.id)
	}
	sh.mu.Unlock()
	if !ok || cur != s {
		return
	}
	h.stats.active.Add(-1)
	sh.cSessions.Add(-1)
	h.stats.ended.Add(1)
	if h.served.Load() {
		// Without Serve no pace loop owns a decoder to forget in.
		h.endedMu.Lock()
		h.ended = append(h.ended, s.id)
		h.endedMu.Unlock()
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
