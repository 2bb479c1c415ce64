package hub

import (
	"sync/atomic"

	"ekho/internal/transport"
)

// batchSize is how many datagrams one receive batch can carry — sized to
// drain a bursty socket in one wakeup without making arenas heavy.
const batchSize = 64

// numArenas bounds how many receive batches can be in flight at once
// (being filled by the pace loop or processed by shard workers).
// When every arena is out, the pace loop waits — by then the shard
// queues are the bottleneck and their shedding policy is in charge, so
// the kernel socket buffer remains the only other drop point.
const numArenas = 4

// packetWork is one data-plane packet routed to a shard worker: the
// decoded message (a slot in some arena) and its resolved session.
type packetWork struct {
	m *transport.Message
	s *session
}

// recvArena is a reusable decode arena for one receive batch. Message
// slots keep their payload capacity across batches (transport.DecodeInto),
// and the per-shard staging slices are recycled the same way, so a
// steady-state pace loop allocates nothing. An arena is handed back
// to the hub's freelist once the pace loop and every shard worker
// holding a sub-batch have released it.
type recvArena struct {
	h        *Hub
	msgs     []transport.Message
	perShard [][]packetWork
	// pending counts outstanding holds: one for the dispatcher plus one
	// per enqueued shard sub-batch.
	pending atomic.Int32
}

func newRecvArena(h *Hub) *recvArena {
	return &recvArena{
		h:        h,
		msgs:     make([]transport.Message, batchSize),
		perShard: make([][]packetWork, len(h.shards)),
	}
}

// take pulls a free arena, blocking until one returns or the hub closes
// (nil). Staging slices come back emptied.
func (h *Hub) takeArena() *recvArena {
	select {
	case a := <-h.arenaFree:
		return a
	case <-h.done:
		return nil
	}
}

// release drops one hold on the arena; the last hold recycles it onto
// the freelist.
func (a *recvArena) release() {
	if a.pending.Add(-1) != 0 {
		return
	}
	for i := range a.perShard {
		a.perShard[i] = a.perShard[i][:0]
	}
	a.h.arenaFree <- a
}
