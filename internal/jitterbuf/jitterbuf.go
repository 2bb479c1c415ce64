// Package jitterbuf implements the threshold jitter buffer described in
// §3.3 of the paper: frames arriving from the network are buffered, and
// playout starts only once the buffered duration exceeds a threshold.
// Fluctuations below the threshold are absorbed; a loss or delay spike that
// depletes the buffer shifts the playout clock — the "high-frequency"
// source of ISD change that forces Ekho to re-synchronize.
//
// The buffer is deliberately device-like rather than ideal: when a frame
// misses its playout deadline the device plays concealment (or silence)
// and the stream's effective latency changes, exactly the behaviour seen
// in Figure 9 where single losses bump ISD by one 20 ms frame.
package jitterbuf

import "sort"

// Frame is one buffered media frame.
type Frame struct {
	// Seq is the sender's frame sequence number.
	Seq int
	// Samples is the decoded PCM payload.
	Samples []float64
}

// Event describes what the buffer produced for one playout tick.
type Event int

// Playout outcomes.
const (
	// Played: the expected frame was present and consumed.
	Played Event = iota
	// Concealed: the expected frame was missing, so playback jumped ahead
	// to the next buffered frame — that frame's samples are returned and
	// all subsequent content now plays earlier ("the playback missing one
	// frame and jumping ahead by 20 ms", §6.1). This is the jitter-buffer
	// behaviour that changes ISD on loss.
	Concealed
	// Waiting: the buffer has not yet reached its startup threshold (or
	// re-buffering after depletion); nothing is consumed.
	Waiting
)

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e {
	case Played:
		return "played"
	case Concealed:
		return "concealed"
	default:
		return "waiting"
	}
}

// DefaultMaxFrames caps a buffer when the caller does not choose a
// bound: ~5 s of 20 ms frames, far beyond any sane playout threshold
// but small enough that a stalled session cannot grow the heap.
const DefaultMaxFrames = 256

// Buffer is a sequence-ordered threshold jitter buffer.
type Buffer struct {
	// ThresholdFrames is how many frames must accumulate before playout
	// starts (e.g. 3 frames = 60 ms as in §3.3's example).
	ThresholdFrames int
	// MaxFrames caps how many frames the buffer holds; arrivals beyond
	// it are dropped (counted in overflows). A consumer that stops calling
	// Pop — a stalled playout clock — therefore bounds its memory at
	// MaxFrames instead of buffering the rest of the stream.
	MaxFrames int

	frames  map[int]Frame
	nextSeq int  // next sequence number to play
	started bool // reached threshold at least once since last depletion
	// Playout counters, for tests of the buffer's accounting.
	played    int
	conceals  int
	waits     int
	overflows int
}

// New returns a buffer requiring thresholdFrames before playout,
// holding at most DefaultMaxFrames.
func New(thresholdFrames int) *Buffer {
	if thresholdFrames < 1 {
		thresholdFrames = 1
	}
	return &Buffer{
		ThresholdFrames: thresholdFrames,
		MaxFrames:       DefaultMaxFrames,
		frames:          make(map[int]Frame),
	}
}

// Push inserts a received frame and reports whether it was kept. Late
// frames (seq already played), duplicates, and arrivals into a full
// buffer (the overflow-drop event counted in overflows) are dropped.
func (b *Buffer) Push(f Frame) bool {
	if f.Seq < b.nextSeq {
		return false // too late, playout has moved past it
	}
	if _, ok := b.frames[f.Seq]; ok {
		return false
	}
	if b.MaxFrames > 0 && len(b.frames) >= b.MaxFrames {
		b.overflows++
		return false
	}
	b.frames[f.Seq] = f
	return true
}

// Pop is called once per frame interval by the playout clock. It returns
// the samples to play (nil for Waiting) and the event describing what
// happened.
func (b *Buffer) Pop() ([]float64, Event) {
	if !b.started {
		if len(b.frames) >= b.ThresholdFrames {
			b.started = true
			// Align playout to the oldest buffered frame.
			b.nextSeq = b.oldestSeq()
		} else {
			b.waits++
			return nil, Waiting
		}
	}
	if f, ok := b.frames[b.nextSeq]; ok {
		delete(b.frames, b.nextSeq)
		b.nextSeq++
		b.played++
		return f.Samples, Played
	}
	// Expected frame missing. If the buffer holds later frames, playback
	// jumps ahead to the oldest one (content now plays earlier — the ISD
	// shift the paper observes per loss); if the buffer is fully depleted
	// we fall back to re-buffering.
	if len(b.frames) == 0 {
		b.started = false
		b.waits++
		return nil, Waiting
	}
	jump := b.oldestSeq()
	f := b.frames[jump]
	delete(b.frames, jump)
	b.nextSeq = jump + 1
	b.conceals++
	return f.Samples, Concealed
}

// oldestSeq returns the smallest buffered sequence number.
func (b *Buffer) oldestSeq() int {
	keys := make([]int, 0, len(b.frames))
	for k := range b.frames {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[0]
}

// NextSeq returns the sequence number the buffer expects to play next.
func (b *Buffer) NextSeq() int { return b.nextSeq }
