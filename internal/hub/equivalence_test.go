package hub

import (
	"testing"

	"ekho"
	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/gamesynth"
	"ekho/internal/serverpipe"
)

// isdCollector records the measurement sequence a pipeline produces.
type isdCollector struct {
	serverpipe.NopSink
	isds    []float64
	actions int
}

func (c *isdCollector) ISDMeasurement(_ float64, m ekho.Measurement) {
	c.isds = append(c.isds, m.ISDSeconds)
}

func (c *isdCollector) CompensationAction(float64, ekho.Action) { c.actions++ }

// TestHubMatchesDirectPipeline is the sim/hub equivalence check for the
// shared server core: a single-session hub loopback (full wire path —
// serialization, MemNet datagrams, the hub loop) must produce exactly the
// same ISD measurement sequence as a directly driven serverpipe.Pipeline
// fed the same client arithmetic. Any hub-private processing that crept
// back in (its own matcher, sequencer or scheduler) would break this.
func TestHubMatchesDirectPipeline(t *testing.T) {
	const (
		contentSeconds = 12.0
		delayFrames    = 7
		offset         = 3.0
		atten          = 0.1
	)

	rep, err := RunLoopback(LoopbackScenario{
		Sessions:       1,
		ContentSeconds: contentSeconds,
		AirDelayFrames: func(uint32) int { return delayFrames },
		ClockOffsetSec: func(uint32) float64 { return offset },
		Attenuation:    atten,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("expected 1 session result, got %d", len(rep.Results))
	}
	hubISDs := rep.Results[0].ISDs
	if len(hubISDs) == 0 {
		t.Fatal("hub session produced no measurements")
	}

	// Direct drive: the same pipeline configuration the hub builds
	// (defaults: clip 0, seed 4242, loopback codec and settling), with the
	// loopback client's timestamp arithmetic replicated synchronously.
	sink := &isdCollector{}
	pipe := serverpipe.New(serverpipe.Config{
		Game:        gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds),
		Seq:         ekho.NewMarkerSequence(4242),
		Codec:       codec.Lossless,
		Compensator: ekho.CompensatorConfig{SettleSec: 3},
		Sink:        sink,
	})
	enc := codec.NewEncoder(codec.Lossless)
	frame := make([]float64, ekho.FrameSamples)
	mic := make([]float64, ekho.FrameSamples)
	ticks := int(contentSeconds / frameSec)
	for i := 0; i < ticks; i++ {
		// Screen frame: serialized to int16 on the wire, overheard at the
		// mic attenuated; the air delay is modeled by the ADC timestamp.
		fi := pipe.NextScreenFrame(frame)
		for j, v := range frame {
			mic[j] = audio.Int16ToFloat(audio.FloatToInt16(v)) * atten
		}
		// Accessory frame: every content-bearing frame yields a playback
		// record on the client's offset clock, micros-rounded on the wire.
		fa := pipe.NextAccessoryFrame(frame)
		if fa.ContentStart >= 0 {
			at := offset + float64(fa.Seq)*frameSec + float64(fa.ContentOff)/ekho.SampleRate
			pipe.OfferRecord(serverpipe.Record{
				ContentStart: fa.ContentStart,
				N:            ekho.FrameSamples - fa.ContentOff,
				LocalTime:    float64(int64(at*1e6)) / 1e6,
			})
		}
		pkt, err := enc.Encode(mic)
		if err != nil {
			t.Fatal(err)
		}
		adcMicros := int64((offset + (float64(fi.Seq)+float64(delayFrames))*frameSec) * 1e6)
		pipe.OfferChat(fi.Seq, float64(adcMicros)/1e6, pkt)
	}

	if len(sink.isds) != len(hubISDs) {
		t.Fatalf("measurement count: hub %d, direct %d", len(hubISDs), len(sink.isds))
	}
	for i := range hubISDs {
		if hubISDs[i] != sink.isds[i] {
			t.Fatalf("ISD %d: hub %.9f, direct %.9f", i, hubISDs[i], sink.isds[i])
		}
	}
	if rep.Results[0].Actions != sink.actions {
		t.Fatalf("action count: hub %d, direct %d", rep.Results[0].Actions, sink.actions)
	}
}
