package estimator

import (
	"math/rand"
	"testing"

	"ekho/internal/acoustic"
	"ekho/internal/audio"
)

// feedInChunks pushes a recording through the incremental detector in
// random chunk sizes and returns all detections.
func feedInChunks(rec []float64, cfg Config, seed int64) []Detection {
	d := NewIncrementalDetector(cfg)
	rng := rand.New(rand.NewSource(seed))
	var out []Detection
	pos := 0
	for pos < len(rec) {
		n := 480 + rng.Intn(4*audio.FrameSamples)
		if pos+n > len(rec) {
			n = len(rec) - pos
		}
		out = append(out, d.Feed(rec[pos:pos+n])...)
		pos += n
	}
	out = append(out, d.Flush()...)
	return out
}

func TestIncrementalMatchesBatchCleanSignal(t *testing.T) {
	marked, _ := makeMarked(t, 6, 0.5, 1)
	cfg := Config{Seq: testSeq}
	batch := DetectMarkers(marked.Samples, cfg)
	inc := feedInChunks(marked.Samples, cfg, 1)
	if len(batch) == 0 {
		t.Fatal("batch found nothing")
	}
	assertDetectionsMatch(t, batch, inc, 5)
}

func TestIncrementalMatchesBatchThroughChannel(t *testing.T) {
	marked, _ := makeMarked(t, 6, 0.5, 3)
	recv := acoustic.DefaultChannel().Transmit(marked)
	cfg := Config{Seq: testSeq}
	batch := DetectMarkers(recv.Samples, cfg)
	inc := feedInChunks(recv.Samples, cfg, 2)
	if len(batch) < 4 {
		t.Fatalf("batch only found %d", len(batch))
	}
	assertDetectionsMatch(t, batch, inc, 5)
}

// assertDetectionsMatch requires every batch detection to appear in the
// incremental output within tol samples (and no large spurious extras).
func assertDetectionsMatch(t *testing.T, batch, inc []Detection, tol int) {
	t.Helper()
	for _, b := range batch {
		found := false
		for _, g := range inc {
			if absInt(g.Sample-b.Sample) <= tol {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("batch detection at %d missing from incremental output %v", b.Sample, samplesOf(inc))
		}
	}
	if len(inc) > len(batch)+1 {
		t.Fatalf("incremental produced %d detections vs batch %d: %v vs %v",
			len(inc), len(batch), samplesOf(inc), samplesOf(batch))
	}
}

func samplesOf(d []Detection) []int {
	out := make([]int, len(d))
	for i, x := range d {
		out[i] = x.Sample
	}
	return out
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestIncrementalNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	noise := make([]float64, 6*audio.SampleRate)
	for i := range noise {
		noise[i] = rng.NormFloat64() * 0.2
	}
	if dets := feedInChunks(noise, Config{Seq: testSeq}, 3); len(dets) != 0 {
		t.Fatalf("%d false detections on noise", len(dets))
	}
}

func TestIncrementalEmissionLatency(t *testing.T) {
	// A marker should be emitted roughly one interval after its start
	// (the Eq. 7 companion wait), not arbitrarily later.
	marked, log := makeMarked(t, 6, 0.5, 5)
	cfg := Config{Seq: testSeq}
	d := NewIncrementalDetector(cfg)
	firstEmit := -1
	for pos := 0; pos+audio.FrameSamples <= marked.Len(); pos += audio.FrameSamples {
		dets := d.Feed(marked.Samples[pos : pos+audio.FrameSamples])
		if len(dets) > 0 && firstEmit < 0 {
			firstEmit = pos
		}
	}
	if firstEmit < 0 {
		t.Fatal("nothing emitted")
	}
	// First marker at log[0] confirms when the second appears (+1 s),
	// plus normalization/peak lookaheads — well under 3 s total.
	latency := firstEmit - log[0].StartSample
	if latency > 3*audio.SampleRate {
		t.Fatalf("first emission %d samples (%.1f s) after the marker", latency, float64(latency)/audio.SampleRate)
	}
}

func TestIncrementalStateBounded(t *testing.T) {
	// Long stream: internal buffers must stay bounded.
	marked, _ := makeMarked(t, 12, 0.5, 7)
	t.Run("two-stage", func(t *testing.T) {
		cfg := Config{Seq: testSeq}
		d := NewIncrementalDetector(cfg)
		for pos := 0; pos+audio.FrameSamples <= marked.Len(); pos += audio.FrameSamples {
			d.Feed(marked.Samples[pos : pos+audio.FrameSamples])
		}
		c := cfg.withDefaults()
		// Full-rate audio retained for refinement: at most one coarse
		// FFT window of un-correlated audio plus the scan's lag behind
		// the frontier and the trim hysteresis.
		if maxRec := (d.corr.SegmentLen()+c.NormWindow/coarseFactor+2*c.Delta)*coarseFactor + 16384; len(d.rec) > maxRec {
			t.Fatalf("rec buffer %d > %d", len(d.rec), maxRec)
		}
		if len(d.bb) > d.corr.SegmentLen()+4096 {
			t.Fatalf("baseband buffer %d", len(d.bb))
		}
		if len(d.scan.z) > 3*c.NormWindow/coarseFactor+2*testSeq.Len()/coarseFactor {
			t.Fatalf("coarse z buffer %d", len(d.scan.z))
		}
		if len(d.cz) > d.corr.Step()+2048 {
			t.Fatalf("derotated buffer %d", len(d.cz))
		}
		if len(d.scan.env) > 20*c.Delta {
			t.Fatalf("env buffer %d", len(d.scan.env))
		}
		if len(d.conf.pending) > 16 {
			t.Fatalf("pending peaks %d", len(d.conf.pending))
		}
	})
}

// A detector without a template could never fire; the constructor says so
// instead of returning one.
func TestNewIncrementalDetectorNilSeqPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Seq should panic")
		}
	}()
	NewIncrementalDetector(Config{})
}

func TestIncrementalFlushOnShortInput(t *testing.T) {
	d := NewIncrementalDetector(Config{Seq: testSeq})
	if dets := d.Feed(make([]float64, 100)); len(dets) != 0 {
		t.Fatal("tiny input should not detect")
	}
	if dets := d.Flush(); len(dets) != 0 {
		t.Fatal("flush on tiny input should be empty")
	}
}

func BenchmarkIncrementalDetector1s(b *testing.B) {
	marked, _ := makeMarked(b, 10, 0.5, 0)
	cfg := Config{Seq: testSeq}
	b.ReportAllocs()
	b.ResetTimer()
	d := NewIncrementalDetector(cfg)
	pos := 0
	for i := 0; i < b.N; i++ {
		// One second of streaming per iteration.
		for k := 0; k < 50; k++ {
			if pos+audio.FrameSamples > marked.Len() {
				pos = 0
				d = NewIncrementalDetector(cfg)
			}
			d.Feed(marked.Samples[pos : pos+audio.FrameSamples])
			pos += audio.FrameSamples
		}
	}
}
