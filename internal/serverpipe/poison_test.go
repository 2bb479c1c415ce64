package serverpipe

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/pn"
)

// isdSink counts measurements by detection time, concealed packets and
// resyncs.
type isdSink struct {
	NopSink
	detections []float64
	concealed  []uint32
	resyncs    int
}

func (s *isdSink) ISDMeasurement(_ float64, m estimator.Measurement) {
	s.detections = append(s.detections, m.DetectionTime)
}
func (s *isdSink) ChatGapConcealed(seq uint32, _ float64) { s.concealed = append(s.concealed, seq) }
func (s *isdSink) ChatResync(uint32, int)                 { s.resyncs++ }

// measuredAfter counts measurements detected more than a second after t:
// markers heard wholly after it.
func (s *isdSink) measuredAfter(t float64) int {
	n := 0
	for _, dt := range s.detections {
		if dt > t+1 {
			n++
		}
	}
	return n
}

// One hostile lossless chat frame — raw IEEE-754 words off the wire, here
// carrying a NaN — must cost the session that frame and nothing else: it
// is concealed and counted, and the markers that follow are still
// measured. Before the decoder refused such frames the NaN reached the
// detector's since-stream-start power sums and the session never
// detected a marker again.
func TestPoisonedLosslessFrameDoesNotBlindSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second session")
	}
	sink := &isdSink{}
	p := New(Config{
		Game:  gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds),
		Seq:   pn.NewSequence(4242, pn.DefaultLength),
		Codec: codec.Lossless,
		Sink:  sink,
	})
	enc := codec.NewEncoder(codec.Lossless)
	frame := make([]float64, audio.FrameSamples)
	mic := make([]float64, audio.FrameSamples)
	const (
		ticks      = 16 * 50 // 16 s of session time
		poisonTick = 6 * 50
		atten      = 0.1
	)
	for i := 0; i < ticks; i++ {
		// The mic overhears the screen frame attenuated, with zero air
		// delay; every accessory frame yields a playback record.
		fi := p.NextScreenFrame(frame)
		for j, v := range frame {
			mic[j] = v * atten
		}
		fa := p.NextAccessoryFrame(frame)
		if fa.ContentStart >= 0 {
			p.OfferRecord(Record{
				ContentStart: fa.ContentStart,
				N:            audio.FrameSamples - fa.ContentOff,
				LocalTime:    float64(fa.Seq)*frameSec + float64(fa.ContentOff)/audio.SampleRate,
			})
		}
		pkt, err := enc.Encode(mic)
		if err != nil {
			t.Fatal(err)
		}
		if i == poisonTick {
			binary.LittleEndian.PutUint64(pkt[3+8*100:], math.Float64bits(math.NaN()))
		}
		p.OfferChat(fi.Seq, float64(fi.Seq)*frameSec, pkt)
	}
	if len(sink.concealed) != 1 || sink.concealed[0] != poisonTick {
		t.Errorf("concealed packets %v, want exactly the poisoned one (%d)", sink.concealed, poisonTick)
	}
	if after := sink.measuredAfter(float64(poisonTick) * frameSec); after < 4 {
		t.Fatalf("%d measurements for markers heard after the poisoned frame (of %d total), want ≥ 4",
			after, len(sink.detections))
	}
}

// One chat packet 2³¹ ahead of the uplink sequence — a restarted client,
// or a hostile one, since any host can send it — must cost the session a
// bounded amount of work: the pipeline resyncs the estimator instead of
// concealing every missing frame (at ~35 µs each, 2³¹ of them would park
// the caller for most of a day). The sequence carries on from the jump,
// and the markers heard after it are still measured.
func TestFarAheadChatSeqIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second session")
	}
	sink := &isdSink{}
	p := New(Config{
		Game: gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds),
		Seq:  pn.NewSequence(4242, pn.DefaultLength),
		Sink: sink,
	})
	enc := codec.NewEncoder(codec.SWB32)
	frame := make([]float64, audio.FrameSamples)
	mic := make([]float64, audio.FrameSamples)
	const (
		ticks    = 16 * 50
		jumpTick = 6 * 50
		jump     = 1 << 31
		atten    = 0.1
	)
	for i := 0; i < ticks; i++ {
		fi := p.NextScreenFrame(frame)
		for j, v := range frame {
			mic[j] = v * atten
		}
		fa := p.NextAccessoryFrame(frame)
		if fa.ContentStart >= 0 {
			p.OfferRecord(Record{
				ContentStart: fa.ContentStart,
				N:            audio.FrameSamples - fa.ContentOff,
				LocalTime:    float64(fa.Seq)*frameSec + float64(fa.ContentOff)/audio.SampleRate,
			})
		}
		pkt, err := enc.Encode(mic)
		if err != nil {
			t.Fatal(err)
		}
		seq := fi.Seq
		if i >= jumpTick {
			seq += jump
		}
		start := time.Now()
		p.OfferChat(seq, float64(fi.Seq)*frameSec, pkt)
		if el := time.Since(start); i == jumpTick && el > 10*time.Millisecond {
			t.Fatalf("the far-ahead packet held the caller %v, want < 10 ms", el)
		}
	}
	if sink.resyncs != 1 || len(sink.concealed) != 0 {
		t.Fatalf("%d resyncs and %d concealed frames, want exactly one resync and no concealment",
			sink.resyncs, len(sink.concealed))
	}
	if after := sink.measuredAfter(float64(jumpTick) * frameSec); after < 4 {
		t.Fatalf("%d measurements for markers heard after the jump (of %d total), want ≥ 4",
			after, len(sink.detections))
	}
}
