package live

import (
	"testing"

	"ekho/internal/transport"
)

// A frame the jitter buffer refuses leaves no metadata behind, and the
// frames it keeps come back out in order with theirs.
func TestPlayoutKeepsOnlyBufferedFrames(t *testing.T) {
	p := newPlayout(2)
	p.buf.MaxFrames = 2
	frame := func(seq uint32) transport.Media {
		return transport.Media{Seq: seq, ContentStart: 960 * int64(seq)}
	}
	p.push(frame(0))
	p.push(frame(1))
	p.push(frame(2)) // overflow: the buffer holds two frames
	if _, ok := p.metaBySeq[2]; ok || len(p.metaBySeq) != 2 {
		t.Fatalf("overflowed frame kept: %v", p.metaBySeq)
	}
	for want := uint32(0); want < 2; want++ {
		m, ok := p.pop()
		if !ok || m.Seq != want || m.ContentStart != 960*int64(want) {
			t.Fatalf("pop %d: %+v, %v", want, m, ok)
		}
	}
	p.push(frame(1)) // late: frame 1 already played
	if len(p.metaBySeq) != 0 {
		t.Fatalf("late frame kept: %v", p.metaBySeq)
	}
}
