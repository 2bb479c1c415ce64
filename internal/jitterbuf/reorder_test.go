package jitterbuf

import (
	"math/rand"
	"testing"
)

func offer(t *testing.T, r *Reorder, seq uint32, want ReorderVerdict) int {
	t.Helper()
	v, slot := r.Offer(seq)
	if v != want {
		t.Fatalf("Offer(%d) = %v, want %v", seq, v, want)
	}
	return slot
}

func TestReorderInOrderPassThrough(t *testing.T) {
	r := NewReorder(4)
	for seq := uint32(10); seq < 15; seq++ {
		offer(t, r, seq, RDeliver)
		if _, _, ok := r.Pop(); ok {
			t.Fatal("nothing should be held")
		}
	}
	st := r.Stats()
	if st.Delivered != 5 || st.Held != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReorderResequencesSwap(t *testing.T) {
	r := NewReorder(4)
	offer(t, r, 0, RDeliver)
	slot := offer(t, r, 2, RHold) // gap: 1 missing
	if slot < 0 || slot >= 4 {
		t.Fatalf("hold slot %d", slot)
	}
	if _, _, ok := r.Pop(); ok {
		t.Fatal("gap unfilled: nothing deliverable")
	}
	offer(t, r, 1, RDeliver) // gap fills
	got, seq, ok := r.Pop()
	if !ok || got != slot || seq != 2 {
		t.Fatalf("Pop = (%d, %d, %v), want (%d, 2, true)", got, seq, ok, slot)
	}
	if _, _, ok := r.Pop(); ok {
		t.Fatal("drained")
	}
	offer(t, r, 3, RDeliver) // stream continues in order
}

func TestReorderDropsLateAndDuplicate(t *testing.T) {
	r := NewReorder(4)
	offer(t, r, 5, RDeliver)
	offer(t, r, 6, RDeliver)
	offer(t, r, 5, RDropLate)
	offer(t, r, 8, RHold)
	offer(t, r, 8, RDropDup)
	st := r.Stats()
	if st.Late != 1 || st.Duplicates != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReorderForceFlushOnFullWindow(t *testing.T) {
	r := NewReorder(2)
	offer(t, r, 0, RDeliver)
	s3 := offer(t, r, 3, RHold)
	s2 := offer(t, r, 2, RHold) // window now full; 1 still missing
	// Pop force-flushes the oldest held packet, abandoning the gap.
	slot, seq, ok := r.Pop()
	if !ok || seq != 2 || slot != s2 {
		t.Fatalf("flush Pop = (%d, %d, %v), want (%d, 2, true)", slot, seq, ok, s2)
	}
	// Cursor jumped past the gap: 3 is now in order.
	slot, seq, ok = r.Pop()
	if !ok || seq != 3 || slot != s3 {
		t.Fatalf("second Pop = (%d, %d, %v), want (%d, 3, true)", slot, seq, ok, s3)
	}
	if _, _, ok := r.Pop(); ok {
		t.Fatal("drained")
	}
	st := r.Stats()
	if st.Flushed != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The abandoned packet 1 arriving now is late.
	offer(t, r, 1, RDropLate)
	offer(t, r, 4, RDeliver)
}

func TestReorderWindowClamp(t *testing.T) {
	r := NewReorder(0)
	offer(t, r, 0, RDeliver)
	offer(t, r, 2, RHold)
	// Window of 1 is full; Pop must flush rather than deadlock.
	if _, seq, ok := r.Pop(); !ok || seq != 2 {
		t.Fatalf("clamped window did not flush (seq %d ok %v)", seq, ok)
	}
}

// TestReorderDeliversEveryKeptPacket is the conservation property: over
// a randomly shuffled, lossy, duplicated stream, every packet not
// dropped by Offer is eventually released by exactly one Deliver, and
// delivered sequence numbers never move backwards.
func TestReorderDeliversEveryKeptPacket(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewReorder(4)
		delivered := 0
		lastSeq := int64(-1)
		checkSeq := func(seq uint32) {
			if int64(seq) <= lastSeq {
				t.Fatalf("seed %d: seq %d delivered after %d", seed, seq, lastSeq)
			}
			lastSeq = int64(seq)
			delivered++
		}
		offered := 0
		for i := 0; i < 400; i++ {
			seq := uint32(i)
			if rng.Float64() < 0.08 {
				continue // lost upstream
			}
			// Displace some arrivals by re-offering a nearby future seq.
			if rng.Float64() < 0.2 {
				seq += uint32(1 + rng.Intn(3))
			}
			offered++
			v, _ := r.Offer(seq)
			if v == RDeliver {
				checkSeq(seq)
			}
			for {
				_, s, ok := r.Pop()
				if !ok {
					break
				}
				checkSeq(s)
			}
		}
		st := r.Stats()
		if got := st.Delivered; uint64(delivered) != got {
			t.Fatalf("seed %d: delivered %d, stats say %d", seed, delivered, got)
		}
		if uint64(offered) != st.Delivered+st.Late+st.Duplicates+st.Overflows+uint64(r.Pending()) {
			t.Fatalf("seed %d: conservation: offered %d vs stats %+v pending %d",
				seed, offered, st, r.Pending())
		}
	}
}

// TestReorderFastPathAllocFree locks in the in-order hot path: two
// compares, no allocation.
func TestReorderFastPathAllocFree(t *testing.T) {
	r := NewReorder(4)
	r.Offer(0)
	seq := uint32(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Offer(seq)
		seq++
	}); allocs != 0 {
		t.Fatalf("in-order Offer allocates %.1f", allocs)
	}
}

func TestBufferOverflowDrop(t *testing.T) {
	b := New(2)
	b.MaxFrames = 3
	for i := 0; i < 5; i++ {
		kept := b.Push(Frame{Seq: i, Samples: []float64{float64(i)}})
		if kept != (i < 3) {
			t.Fatalf("push %d: kept %v", i, kept)
		}
	}
	if len(b.frames) != 3 {
		t.Fatalf("level %d, want 3", len(b.frames))
	}
	if b.overflows != 2 {
		t.Fatalf("%d overflows, want 2", b.overflows)
	}
	// Draining makes room again.
	b.Pop()
	if !b.Push(Frame{Seq: 5, Samples: []float64{5}}) {
		t.Fatal("push after drain should succeed")
	}
}
