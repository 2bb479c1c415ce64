package hub

import (
	"ekho/internal/transport"
)

// batchSize is how many datagrams one receive batch can carry: the pace
// loop drains a tick's chat in a few polls without a heavy batch.
const batchSize = 64

// A stripe is a partition of the session registry: sessions are pinned to
// stripes by ID hash, and a stripe's sessions are only ever touched by one
// goroutine at a time. It has no goroutine or queue of its own. Under the
// hub's mutex, whoever holds it stages work on each stripe (ticks, routed
// packets) and runStripes runs the stripes, on one goroutine each when
// there is more than one.
type stripe struct {
	sessions map[uint32]*session
	// ticks and items are the work staged for the next runStripe: media
	// ticks for every session, then routed packets in arrival order.
	ticks int
	items []packetWork
	// frame and pcm are the tick scratch: one session's frame is
	// generated, marked, converted and serialized into that session's
	// packet buffer before the next session ticks.
	frame []float64
	pcm   []int16
	// egress queues the stripe's outbound datagrams during a tick; they
	// leave through one SendBatch per tick.
	egress []transport.Packet
	// ended holds the ids of sessions removed while Serve runs, until the
	// pace loop, which owns the Conn's decoder, forgets their flows.
	ended []uint32
	// run hands the stripe to its helper goroutine (stripes after the
	// first, when there is more than one).
	run chan struct{}
}

// packetWork is one routed packet: a decoded message and its session.
type packetWork struct {
	m *transport.Message
	s *session
}

// shardIndex pins a session ID to a stripe. Session IDs are arbitrary
// client-chosen u32s, so mix the bits before reducing.
func shardIndex(id uint32, shards int) int {
	h := id
	h ^= h >> 16
	h *= 0x45d9f3b
	h ^= h >> 16
	return int(h % uint32(shards))
}

// stripeFor returns the stripe session id is pinned to.
func (h *Hub) stripeFor(id uint32) *stripe {
	return h.stripes[shardIndex(id, len(h.stripes))]
}

// runStripes runs runStripe on every stripe with staged work and returns
// when all have finished: the caller's goroutine takes the first stripe,
// and each other busy stripe runs on its own helper goroutine. The caller
// holds h.mu. With one stripe no helper exists.
func (h *Hub) runStripes() {
	for _, st := range h.stripes[1:] {
		if st.ticks == 0 && len(st.items) == 0 {
			continue
		}
		h.helpers.Do(h.startHelpers)
		h.join.Add(1)
		select {
		case st.run <- struct{}{}:
		case <-h.done:
			h.runStripe(st)
			h.join.Done()
		}
	}
	h.runStripe(h.stripes[0])
	h.join.Wait()
}

// startHelpers starts one goroutine per stripe after the first. Each runs
// its stripe when runStripes hands it over, until the hub closes.
func (h *Hub) startHelpers() {
	for _, st := range h.stripes[1:] {
		go func() {
			for {
				select {
				case <-st.run:
					h.stats.helperWakeups.Inc()
					h.runStripe(st)
					h.join.Done()
				case <-h.done:
					return
				}
			}
		}()
	}
}

// runStripe runs a stripe's staged work to completion: each staged tick
// for every session, its media flushed before anything else runs, then
// the routed packets in arrival order.
func (h *Hub) runStripe(st *stripe) {
	for ; st.ticks > 0; st.ticks-- {
		for _, s := range st.sessions {
			s.tick()
		}
		h.flushEgress(st)
	}
	for _, pw := range st.items {
		if done := pw.s.handle(pw.m); done {
			h.remove(st, pw.s, false)
		}
	}
	clear(st.items) // drop the pointers into the caller's messages
	st.items = st.items[:0]
}

// flushEgress transmits the stripe's queued outbound datagrams in one
// SendBatch, after which the sessions' packet buffers are free for reuse.
func (h *Hub) flushEgress(st *stripe) {
	if len(st.egress) == 0 {
		return
	}
	// The first error is not reported on its own: every failed packet is
	// counted in sendErrs.
	sent, _ := h.conn.SendBatch(st.egress)
	h.stats.packetsOut.Add(int64(sent))
	h.stats.sendErrs.Add(int64(len(st.egress) - sent))
	st.egress = st.egress[:0]
}

// remove unregisters a session and emits its result. The caller runs the
// session's stripe (or holds h.mu with no stripe running), so the
// session's pipeline state is quiescent.
func (h *Hub) remove(st *stripe, s *session, reaped bool) {
	if st.sessions[s.id] != s {
		return
	}
	delete(st.sessions, s.id)
	h.stats.active.Add(-1)
	h.stats.ended.Add(1)
	if h.served.Load() {
		// Without Serve no pace loop owns a decoder to forget in.
		st.ended = append(st.ended, s.id)
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
