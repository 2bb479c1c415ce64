package serverpipe

import (
	"testing"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/pn"
)

// newTestPipeline builds a pipeline over a bland sine clip with the paper's
// uplink codec, plus a matching encoder for synthesizing chat packets.
func newTestPipeline(tb testing.TB) (*Pipeline, *codec.Encoder) {
	tb.Helper()
	game := audio.FromSamples(audio.SampleRate, make([]float64, 4*audio.SampleRate))
	for i := range game.Samples {
		game.Samples[i] = 0.1 * float64(i%97) / 97
	}
	p := New(Config{
		Game: game,
		Seq:  pn.NewSequence(7, pn.DefaultLength),
	})
	return p, codec.NewEncoder(codec.SWB32)
}

// TestPipelineSteadyStateZeroAlloc asserts the per-frame server hot path —
// frame production with marker injection, and the chat uplink path through
// decode, marker resolution and estimation — allocates nothing once warm.
// This is the property that lets one hub process host hundreds of sessions
// without GC pressure (mirrors internal/codec/alloc_test.go).
func TestPipelineSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	p, enc := newTestPipeline(t)
	frame := make([]float64, audio.FrameSamples)
	silence := make([]float64, audio.FrameSamples)
	pkt, err := enc.EncodeTo(nil, silence)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up ~15 s of session time: the detector's overlap-save blocks
	// (~2.7 s each) cycle several times, the record book reaches its
	// eviction bound, the injector log hits its limit and every scratch
	// buffer reaches steady capacity. Chat audio is silence, so no
	// detections fire (a detection path measurement would allocate, and
	// rightly so — it is not steady state).
	seq := uint32(0)
	at := 0.0
	for tick := 0; tick < 750; tick++ {
		p.NextScreenFrame(frame)
		fi := p.NextAccessoryFrame(frame)
		if fi.ContentStart >= 0 {
			p.OfferRecord(Record{
				ContentStart: fi.ContentStart,
				N:            audio.FrameSamples - fi.ContentOff,
				LocalTime:    float64(fi.ContentStart) / audio.SampleRate,
			})
		}
		p.OfferChat(seq, at, pkt)
		seq++
		at += frameSec
	}
	if p.PendingMarkers() != 0 {
		t.Fatalf("warmup left %d unresolved markers", p.PendingMarkers())
	}

	allocs := testing.AllocsPerRun(100, func() {
		p.NextScreenFrame(frame)
	})
	if allocs != 0 {
		t.Fatalf("NextScreenFrame allocates %v per frame, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		p.NextAccessoryFrame(frame)
	})
	if allocs != 0 {
		t.Fatalf("NextAccessoryFrame allocates %v per frame, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		p.OfferChat(seq, at, pkt)
		seq++
		at += frameSec
	})
	if allocs != 0 {
		t.Fatalf("OfferChat allocates %v per packet, want 0", allocs)
	}
	// A gap too long to conceal resets the estimator in place: a client
	// jumping its sequence on every packet costs no garbage either.
	allocs = testing.AllocsPerRun(100, func() {
		seq += 2 * maxConcealFrames
		p.OfferChat(seq, at, pkt)
		seq++
		at += frameSec
	})
	if allocs != 0 {
		t.Fatalf("OfferChat allocates %v per resync, want 0", allocs)
	}
}
