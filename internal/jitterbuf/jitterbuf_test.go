package jitterbuf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func frame(seq int) Frame {
	return Frame{Seq: seq, Samples: []float64{float64(seq)}}
}

func TestWaitsUntilThreshold(t *testing.T) {
	b := New(3)
	if _, ev := b.Pop(); ev != Waiting {
		t.Fatal("empty buffer should wait")
	}
	b.Push(frame(0))
	b.Push(frame(1))
	if _, ev := b.Pop(); ev != Waiting {
		t.Fatal("below threshold should wait")
	}
	b.Push(frame(2))
	s, ev := b.Pop()
	if ev != Played || s[0] != 0 {
		t.Fatalf("expected frame 0, got %v %v", s, ev)
	}
}

func TestPlaysInSequence(t *testing.T) {
	b := New(2)
	// Out-of-order arrival.
	b.Push(frame(1))
	b.Push(frame(0))
	b.Push(frame(2))
	for want := 0; want < 3; want++ {
		s, ev := b.Pop()
		if ev != Played || int(s[0]) != want {
			t.Fatalf("pop %d: %v %v", want, s, ev)
		}
	}
}

func TestConcealOnGap(t *testing.T) {
	b := New(2)
	b.Push(frame(0))
	b.Push(frame(1))
	b.Push(frame(3)) // frame 2 lost
	if _, ev := b.Pop(); ev != Played {
		t.Fatal("frame 0")
	}
	if _, ev := b.Pop(); ev != Played {
		t.Fatal("frame 1")
	}
	// Frame 2 missing: playback jumps ahead to frame 3 immediately.
	s, ev := b.Pop()
	if ev != Concealed || int(s[0]) != 3 {
		t.Fatalf("gap should jump ahead to frame 3, got %v %v", s, ev)
	}
	if b.conceals != 1 || b.played != 2 {
		t.Fatalf("concealed %d, played %d", b.conceals, b.played)
	}
}

func TestDepletionForcesRebuffering(t *testing.T) {
	b := New(2)
	b.Push(frame(0))
	b.Push(frame(1))
	b.Pop()
	b.Pop()
	// Now empty: should wait, and wait again until threshold re-reached.
	if _, ev := b.Pop(); ev != Waiting {
		t.Fatal("depleted buffer should wait")
	}
	b.Push(frame(2))
	if _, ev := b.Pop(); ev != Waiting {
		t.Fatal("still below threshold after depletion")
	}
	b.Push(frame(3))
	s, ev := b.Pop()
	if ev != Played || int(s[0]) != 2 {
		t.Fatalf("resume at frame 2, got %v %v", s, ev)
	}
}

func TestLateAndDuplicateFramesDropped(t *testing.T) {
	b := New(1)
	b.Push(frame(0))
	b.Pop()
	b.Push(frame(0)) // late
	if len(b.frames) != 0 {
		t.Fatal("late frame should be dropped")
	}
	b.Push(frame(5))
	b.Push(Frame{Seq: 5, Samples: []float64{99}}) // duplicate
	if len(b.frames) != 1 {
		t.Fatal("duplicate should be ignored")
	}
	// Frames 1-4 were never pushed: playback jumps straight to frame 5,
	// and the original frame (not the duplicate) plays.
	s, ev := b.Pop()
	if ev != Concealed || s[0] != 5 {
		t.Fatalf("original frame should win via jump-ahead: %v %v", s, ev)
	}
}

func TestThresholdClamp(t *testing.T) {
	b := New(0)
	if b.ThresholdFrames != 1 {
		t.Fatal("threshold should clamp to 1")
	}
}

func TestEventString(t *testing.T) {
	if Played.String() != "played" || Concealed.String() != "concealed" || Waiting.String() != "waiting" {
		t.Fatal("event names")
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: frames in = played + still buffered + dropped-late, and
	// pops = played + concealed + waits.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(3)
		pushed := 0
		pops := 0
		seq := 0
		for step := 0; step < 500; step++ {
			if rng.Float64() < 0.55 {
				if rng.Float64() > 0.05 { // 5% loss: seq skipped entirely
					b.Push(frame(seq))
					pushed++
				}
				seq++
			} else {
				b.Pop()
				pops++
			}
		}
		if b.played+b.conceals+b.waits != pops {
			return false
		}
		return b.played+len(b.frames) <= pushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNextSeqAdvancesMonotonically(t *testing.T) {
	b := New(2)
	rng := rand.New(rand.NewSource(1))
	seq := 0
	last := -1
	for step := 0; step < 1000; step++ {
		if rng.Float64() < 0.6 {
			if rng.Float64() > 0.1 {
				b.Push(frame(seq))
			}
			seq++
		} else {
			b.Pop()
			if b.NextSeq() < last {
				t.Fatal("NextSeq went backwards")
			}
			last = b.NextSeq()
		}
	}
}
