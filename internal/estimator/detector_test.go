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

// The first measurement waits for the Eq. 7 companion one interval later,
// for that companion to be heard whole, and then for the coarse block that
// holds it to fill. Wherever the stream starts relative to the marker
// schedule, the block cadence may add at most one short block on top: the
// first emission lands within 2.6 s of the first whole marker's start at
// every one of 16 phases across an interval.
func TestFirstDetectionLatencyAcrossPhases(t *testing.T) {
	const (
		phases = 16
		limit  = 2.6 // seconds after the first whole marker starts
	)
	marked, log := makeMarked(t, 8, 0.5, 1)
	cfg := Config{Seq: testSeq}
	interval := cfg.withDefaults().IntervalSamples
	worst := 0.0
	for k := 0; k < phases; k++ {
		off := k * interval / phases
		first := -1
		for _, inj := range log {
			if inj.StartSample >= off {
				first = inj.StartSample
				break
			}
		}
		if first < 0 {
			t.Fatalf("no whole marker after offset %d", off)
		}
		d := NewIncrementalDetector(cfg)
		stream := marked.Samples[off:]
		emitted := -1
		for pos := 0; pos+audio.FrameSamples <= len(stream); pos += audio.FrameSamples {
			if len(d.Feed(stream[pos:pos+audio.FrameSamples])) > 0 {
				emitted = off + pos + audio.FrameSamples
				break
			}
		}
		if emitted < 0 {
			t.Fatalf("offset %d: nothing emitted", off)
		}
		latency := float64(emitted-first) / audio.SampleRate
		t.Logf("offset %5d samples: first emission %.2f s after the first whole marker", off, latency)
		worst = max(worst, latency)
	}
	if worst > limit {
		t.Fatalf("worst first emission %.2f s after the first whole marker, limit %.1f s", worst, limit)
	}
}

// Long stream: between feeds every buffer stays within the length the
// constructor derives for it (DESIGN.md §12), at every frame, not just at
// the end.
func TestIncrementalStateBounded(t *testing.T) {
	t.Run("two-stage", func(t *testing.T) {
		marked, _ := makeMarked(t, 12, 0.5, 7)
		d := NewIncrementalDetector(Config{Seq: testSeq})
		n, sDec, dDec := d.corr.SegmentLen(), d.scan.normWindow, d.scan.delta
		czTail, zTail, envTail := d.tailLens()
		bounds := []struct {
			name     string
			len      func() int
			max      int
			peak, at int
		}{
			// Full-rate audio retained for refinement: one segment past the
			// correlation frontier, the scan's lag behind it, the refine
			// radius behind the scan and one feed.
			{name: "rec", len: func() int { return len(d.rec) },
				max: (n+sDec+dDec)*coarseFactor + 2*refineRadius + feedChunk},
			{name: "bb", len: func() int { return len(d.bb) }, max: n + feedChunk/coarseFactor},
			{name: "cz", len: func() int { return len(d.cz) }, max: czTail},
			{name: "scan.z", len: func() int { return len(d.scan.z) }, max: zTail},
			{name: "scan.zPrefix", len: func() int { return len(d.scan.zPrefix) }, max: zTail + 1},
			{name: "scan.env", len: func() int { return len(d.scan.env) }, max: envTail},
			{name: "conf.pending", len: func() int { return len(d.conf.pending) }, max: 8},
		}
		for pos := 0; pos+audio.FrameSamples <= marked.Len(); pos += audio.FrameSamples {
			d.Feed(marked.Samples[pos : pos+audio.FrameSamples])
			for i := range bounds {
				if l := bounds[i].len(); l > bounds[i].peak {
					bounds[i].peak, bounds[i].at = l, pos
				}
			}
		}
		for _, b := range bounds {
			t.Logf("%-12s peak %6d, derived bound %6d", b.name, b.peak, b.max)
			if b.peak > b.max {
				t.Errorf("%s reached %d (at sample %d), derived bound %d", b.name, b.peak, b.at, b.max)
			}
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
