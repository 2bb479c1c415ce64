package serverpipe

import (
	"encoding/binary"
	"math"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/gamesynth"
	"ekho/internal/pn"
)

// fuzzChatLen is one fuzzed chat packet: a little-endian u32 sequence
// number and the float64 bits of its capture timestamp.
const fuzzChatLen = 12

// fuzzMaxPackets caps the packets taken from one input, so the worst input
// costs tens of milliseconds (each packet may conceal a full gap).
const fuzzMaxPackets = 32

// chatStream encodes (seq, timestamp) pairs as fuzz input.
func chatStream(seqs []uint32, stamps []float64) []byte {
	b := make([]byte, 0, fuzzChatLen*len(seqs))
	for i, s := range seqs {
		b = binary.LittleEndian.AppendUint32(b, s)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(stamps[i]))
	}
	return b
}

// feedSink counts the frames OfferChat conceals ahead of the packet's own.
type feedSink struct {
	NopSink
	seq      uint32 // the packet being offered
	gapFeeds int
}

func (s *feedSink) ChatGapConcealed(seq uint32, _ float64) {
	// A decode-error conceal stands in for the packet's own frame.
	if seq != s.seq {
		s.gapFeeds++
	}
}

// FuzzOfferChatFeedsBounded drives a pipeline with arbitrary chat
// sequence/timestamp streams. Each OfferChat feeds the estimator the
// frames it conceals for a gap, each announced by ChatGapConcealed, plus at
// most the packet's own: at most maxConcealFrames + 1 feeds, whatever the
// sequence does, and nothing panics.
func FuzzOfferChatFeedsBounded(f *testing.F) {
	cfg := Config{
		Game: gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds),
		Seq:  pn.NewSequence(4242, pn.DefaultLength),
	}
	probe := New(cfg)
	frame := make([]float64, audio.FrameSamples)
	probe.NextScreenFrame(frame)
	for i := range frame {
		frame[i] *= 0.1
	}
	pkt, err := codec.NewEncoder(codec.SWB32).Encode(frame)
	if err != nil {
		f.Fatal(err)
	}

	inOrder := func(n int, from uint32) ([]uint32, []float64) {
		seqs, stamps := make([]uint32, n), make([]float64, n)
		for i := range seqs {
			seqs[i] = from + uint32(i)
			stamps[i] = float64(i) * frameSec
		}
		return seqs, stamps
	}
	f.Add(chatStream(inOrder(fuzzMaxPackets, 0)))
	// TestFarAheadChatSeqIsBounded's jump: 2³¹ ahead mid-stream.
	seqs, stamps := inOrder(fuzzMaxPackets, 0)
	for i := fuzzMaxPackets / 2; i < len(seqs); i++ {
		seqs[i] += 1 << 31
	}
	f.Add(chatStream(seqs, stamps))
	// Gaps at the bound and one past it, then back behind the frontier.
	f.Add(chatStream([]uint32{0, 1, 2 + maxConcealFrames, 3 + 2*maxConcealFrames + 1, 5},
		[]float64{0, frameSec, 2, 4, 0.1}))
	// Sequence wrap, duplicates and non-finite timestamps.
	f.Add(chatStream([]uint32{math.MaxUint32 - 1, math.MaxUint32, 0, 0, 1},
		[]float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e300, 1e300}))

	f.Fuzz(func(t *testing.T, data []byte) {
		sink := &feedSink{}
		c := cfg
		c.Sink = sink
		p := New(c)
		frame := make([]float64, audio.FrameSamples)
		for n := 0; len(data) >= fuzzChatLen && n < fuzzMaxPackets; n++ {
			seq := binary.LittleEndian.Uint32(data)
			adc := math.Float64frombits(binary.LittleEndian.Uint64(data[4:]))
			data = data[fuzzChatLen:]
			p.NextScreenFrame(frame)
			if fa := p.NextAccessoryFrame(frame); fa.ContentStart >= 0 {
				p.OfferRecord(Record{ContentStart: fa.ContentStart, N: audio.FrameSamples - fa.ContentOff, LocalTime: adc})
			}
			sink.seq, sink.gapFeeds = seq, 0
			p.OfferChat(seq, adc, pkt)
			if feeds := sink.gapFeeds + 1; feeds > maxConcealFrames+1 {
				t.Fatalf("packet %d (seq %d) fed the estimator up to %d frames, bound %d",
					n, seq, feeds, maxConcealFrames+1)
			}
		}
	})
}
