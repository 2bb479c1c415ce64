package serverpipe

import (
	"runtime"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/pn"
)

// Per-session memory budget, as a hub hosting many sessions sees it.
const (
	// footprintLiveBytes bounds each session's live heap: the marker
	// detector (269,816 B, of which 140,568 B is its 12 kHz complex64
	// history and 65,536 B its complex64 delay line, both set by the
	// estimator's 4096-point coarse segment) plus everything else a
	// pipeline owns, 0.302 MB on SWB32 and 0.290 MB lossless; the bound
	// leaves a 6 % margin. A complex128 delay line read 0.365 and
	// 0.353 MB, and retaining the chat as full-rate float32 audio for the
	// refiner 0.50 and 0.49 MB; both fail it.
	footprintLiveBytes = 32 * (1 << 20) / 100
	// footprintAllocBytes bounds what each session allocates after
	// admission over 30 s of streaming, ≈ 23 KB: buffers are sized at
	// construction or first use, so this is the record book's one
	// allocation, detections and measurements. Buffers grown by append
	// read 63–75 KB.
	footprintAllocBytes = 32 << 10
)

type countingSink struct {
	NopSink
	measurements int
}

func (s *countingSink) ISDMeasurement(float64, estimator.Measurement) { s.measurements++ }

// TestSessionFootprint hosts 32 pipelines per chat profile through 30 s of
// marked chat, interleaved tick by tick as a hub shard runs them, and
// holds each session to the memory budget above. Skipped under -race,
// whose instrumentation distorts both numbers.
func TestSessionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("30 s of session time for 64 pipelines")
	}
	if raceEnabled {
		t.Skip("the race detector distorts heap and allocation counts")
	}
	for _, prof := range []codec.Profile{codec.SWB32, codec.Lossless} {
		t.Run(prof.Name, func(t *testing.T) { sessionFootprint(t, prof) })
	}
}

func sessionFootprint(t *testing.T, prof codec.Profile) {
	const (
		sessions = 32
		ticks    = 30 * 50
		atten    = 0.1
	)
	cfg := Config{
		Game:  gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds),
		Seq:   pn.NewSequence(4242, pn.DefaultLength),
		Codec: prof,
	}
	// Every session streams the same clip and markers, so one probe renders
	// the chat uplink they all send back: the marked screen audio,
	// attenuated at zero air delay, encoded before anything is measured.
	// The probe also warms the shared plans, template caches and scratch
	// free list, which belong to no session.
	probe := New(cfg)
	enc := codec.NewEncoder(prof)
	frame := make([]float64, audio.FrameSamples)
	mic := make([]float64, audio.FrameSamples)
	pkts := make([][]byte, ticks)
	for i := range pkts {
		fi := probe.NextScreenFrame(frame)
		for j, v := range frame {
			mic[j] = v * atten
		}
		pkt, err := enc.Encode(mic)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = pkt
		probe.OfferChat(fi.Seq, float64(fi.Seq)*frameSec, pkt)
	}
	probe = nil

	var before, admitted, streamed, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pipes := make([]*Pipeline, sessions)
	sinks := make([]countingSink, sessions)
	for i := range pipes {
		c := cfg
		c.Sink = &sinks[i]
		pipes[i] = New(c)
	}
	runtime.ReadMemStats(&admitted)
	for tick := 0; tick < ticks; tick++ {
		for _, p := range pipes {
			fi := p.NextScreenFrame(frame)
			fa := p.NextAccessoryFrame(frame)
			if fa.ContentStart >= 0 {
				p.OfferRecord(Record{
					ContentStart: fa.ContentStart,
					N:            audio.FrameSamples - fa.ContentOff,
					LocalTime:    float64(fa.Seq)*frameSec + float64(fa.ContentOff)/audio.SampleRate,
				})
			}
			p.OfferChat(fi.Seq, float64(fi.Seq)*frameSec, pkts[tick])
		}
	}
	runtime.ReadMemStats(&streamed)
	runtime.GC()
	runtime.ReadMemStats(&live)
	// The packets were in the baseline; keep them out of the difference.
	runtime.KeepAlive(pkts)
	runtime.KeepAlive(pipes)

	for i, s := range sinks {
		if s.measurements < 20 {
			t.Fatalf("session %d measured %d markers in 30 s: the detector was not exercised", i, s.measurements)
		}
	}
	livePer := (int64(live.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	allocPer := int64(streamed.TotalAlloc-admitted.TotalAlloc) / sessions
	t.Logf("%s: live heap %.3f MB/session (budget %.3f), allocated after admission %.1f KB/session (budget %d)",
		prof.Name, float64(livePer)/(1<<20), float64(footprintLiveBytes)/(1<<20),
		float64(allocPer)/1024, footprintAllocBytes>>10)
	if livePer > footprintLiveBytes {
		t.Errorf("live heap %d B per session, budget %d", livePer, footprintLiveBytes)
	}
	if allocPer > footprintAllocBytes {
		t.Errorf("allocated %d B per session after admission, budget %d", allocPer, footprintAllocBytes)
	}
}
