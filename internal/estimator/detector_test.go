package estimator

import (
	"math/rand"
	"reflect"
	"testing"

	"ekho/internal/acoustic"
	"ekho/internal/audio"
)

// Flush processes everything buffered regardless of batch thresholds and
// returns any final detections (peaks whose companions were already seen).
// It completes the last blocks by zero-padding the stream, so it ends the
// stream: Reset before feeding the detector again.
func (d *IncrementalDetector) Flush() []Detection {
	d.correlate(true)
	d.advance()
	return d.conf.take()
}

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
		p, blk, lead := d.corr.Partitions(), d.corr.Block(), d.corr.Lead()
		sDec, dDec := d.scan.normWindow, d.scan.delta
		czTail, zTail, envTail := d.tailLens()
		bounds := []struct {
			name     string
			len      func() int
			max      int
			peak, at int
		}{
			// Full-rate audio retained for refinement: (P+1)·B − Lead
			// decimated samples past the correlation frontier (the segment
			// that completes the frontier's block ends there), the scan's
			// lag behind it, the refine radius behind the scan and one feed.
			{name: "rec", len: func() int { return len(d.rec) },
				max: ((p+1)*blk-lead+sDec+dDec)*coarseFactor + 2*refineRadius + feedChunk},
			// The next 2B-sample segment and one feed: the earlier
			// segments live on as spectra in the correlator's delay line.
			{name: "bb", len: func() int { return len(d.bb) }, max: 2*blk + feedChunk/coarseFactor},
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

// Work, counted rather than timed: 10 s of marked audio through a room
// channel in 20 ms frames. The coarse stage may spend at most 25 k
// transform points per second of audio (four per lag in 2048-lag blocks:
// 24 k at steady state; a single 8192-point segment spent 44.8 k), and
// the refiner at most 1.3 passes over the 48000-sample template per
// candidate it refines (the initial eight-lag span is one pass; split into
// fours it was two, ≈ 2.1 per candidate with the extensions).
func TestDetectorWorkCounts(t *testing.T) {
	marked, _ := makeMarked(t, 10, 0.5, 2)
	sig := acoustic.DefaultChannel().Transmit(marked).Samples
	d := NewIncrementalDetector(Config{Seq: testSeq})
	dets := 0
	fed := 0
	for pos := 0; pos+audio.FrameSamples <= len(sig); pos += audio.FrameSamples {
		dets += len(d.Feed(sig[pos : pos+audio.FrameSamples]))
		fed += audio.FrameSamples
	}
	w := d.work
	seconds := float64(fed) / audio.SampleRate
	pointsPerSec := float64(w.coarsePoints) / seconds
	passesPer := float64(w.passes) / float64(max(w.refined, 1))
	t.Logf("%.1f s: %d detections, %.0f coarse transform points/s, %d candidates refined in %d template passes (%.2f each)",
		seconds, dets, pointsPerSec, w.refined, w.passes, passesPer)
	if dets < 5 || w.refined < dets {
		t.Fatalf("%d detections from %d refined candidates: the stages were not exercised", dets, w.refined)
	}
	if pointsPerSec > 25000 {
		t.Errorf("coarse stage: %.0f transform points per second of audio, limit 25000", pointsPerSec)
	}
	if passesPer > 1.3 {
		t.Errorf("refiner: %.2f template passes per refined candidate, limit 1.3", passesPer)
	}
}

// The eight-lag dot kernel keeps one sequential accumulator per lag, so it
// is bit-identical to two four-lag passes, at every alignment, and to the
// plain k-order sum over the audio widened to float64 first: reading the
// float32 audio in place changes no bit.
func TestDots8MatchesDots4Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := make([]float64, 4801)
	x := make([]float32, len(w)+64)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 1e3)
	}
	wide := make([]float64, len(x))
	for i, v := range x {
		wide[i] = float64(v)
	}
	for off := 0; off < 16; off++ {
		var got, want, ref [8]float64
		dots8(got[:], w, x[off:])
		dots4(want[:4], w, x[off:])
		dots4(want[4:], w, x[off+4:])
		if got != want {
			t.Fatalf("offset %d: dots8 %v, dots4 %v", off, got, want)
		}
		for j := range ref {
			for k, v := range w {
				ref[j] += v * wide[off+j+k]
			}
		}
		if got != ref {
			t.Fatalf("offset %d: dots8 %v, float64 reference %v", off, got, ref)
		}
	}
}

// Every detector for one marker sequence correlates against the same
// cached partition spectra: a tag collision would silently give each
// session its own P × 64 KB.
func TestDetectorsSharePartitionSpectra(t *testing.T) {
	a := NewIncrementalDetector(Config{Seq: testSeq})
	b := NewIncrementalDetector(Config{Seq: testSeq})
	if p := a.corr.Partitions(); p != 3 {
		t.Fatalf("%d partitions for the %d-sample decimated marker, want 3", p, a.mdec)
	}
	// The spectra are the correlator's own business; read their addresses
	// through reflection rather than export them.
	pa := reflect.ValueOf(a.corr).Elem().FieldByName("parts")
	pb := reflect.ValueOf(b.corr).Elem().FieldByName("parts")
	for k := 0; k < pa.Len(); k++ {
		if pa.Index(k).Pointer() != pb.Index(k).Pointer() {
			t.Fatalf("partition %d: detectors hold separate spectra", k)
		}
	}
}

// TestRefineWindowEdges checks the fine stage where its window is clipped
// against the retained audio, against the batch oracle. lo is clipped at
// recBase when a marker starts within refineRadius of the stream start. hi
// is clipped at recEnd−L when a candidate's template window ends on the
// newest fed sample. Feed never produces that: a coarse candidate needs the
// scan's normalization lookahead, a tenth of a second past its window. So
// the test refines every candidate a second time with rec cut to end
// where the batch winner's window ends, keeping the detector's state as is.
func TestRefineWindowEdges(t *testing.T) {
	marked, _ := makeMarked(t, 6, 0.5, 2)
	rec := acoustic.DefaultChannel().Transmit(marked).Samples
	cfg := Config{Seq: testSeq}
	L := testSeq.Len()

	t.Run("lo at stream start", func(t *testing.T) {
		// Start the stream 5 samples before a marker.
		at := DetectMarkers(rec, cfg)[1].Sample - 5
		cut := rec[at:]
		ref := DetectMarkers(cut, cfg)
		two := feedInChunks(cut, cfg, 4)
		if len(ref) == 0 || ref[0].Sample >= refineRadius {
			t.Fatalf("batch detections %v: no marker within refineRadius of the start", samplesOf(ref))
		}
		if len(two) != len(ref) {
			t.Fatalf("streaming %v vs batch %v", samplesOf(two), samplesOf(ref))
		}
		for i := range ref {
			if d := absInt(two[i].Sample - ref[i].Sample); d > parityTol {
				t.Errorf("detection %d: streaming %d vs batch %d", i, two[i].Sample, ref[i].Sample)
			}
		}
	})

	t.Run("hi at newest sample", func(t *testing.T) {
		ref := DetectMarkers(rec, cfg)
		d := NewIncrementalDetector(cfg)
		checked := 0
		for pos := 0; pos+audio.FrameSamples <= len(rec); pos += audio.FrameSamples {
			d.ingest(rec[pos : pos+audio.FrameSamples])
			d.correlate(false)
			d.scan.advance()
			for _, p := range d.scan.cands {
				t0 := p.pos * coarseFactor
				var want Detection
				found := false
				for _, r := range ref {
					if absInt(r.Sample-t0) <= refineRadius {
						want, found = r, true
					}
				}
				end := want.Sample + L
				if !found || end-d.recBase > len(d.rec) {
					continue
				}
				// Refine with the newest sample at end−1, then restore the
				// stream and the calibration sums the call accumulated.
				full, gEx, gRec := d.rec, d.gEx, d.gRec
				d.rec = d.rec[:end-d.recBase]
				got, _ := d.refine(p)
				d.rec, d.gEx, d.gRec = full, gEx, gRec
				if t0+refineRadius <= want.Sample {
					t.Fatalf("candidate %d: hi not clipped at %d", t0, want.Sample)
				}
				if dd := absInt(got.Sample - want.Sample); dd > parityTol {
					t.Errorf("candidate %d clipped at %d: refined to %d, batch %d", t0, want.Sample, got.Sample, want.Sample)
				}
				checked++
			}
			d.advance()
		}
		t.Logf("%d clipped candidates checked against %d batch detections", checked, len(ref))
		if checked < len(ref)-1 {
			t.Fatalf("checked %d clipped candidates of %d batch detections", checked, len(ref))
		}
	})
}
