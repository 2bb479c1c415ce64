package estimator

import (
	"math"
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
// constructor derives for it (DESIGN.md §6), at every frame, not just at
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
			// The 12 kHz history retained for refinement: (P+1)·B − Lead
			// decimated samples past the correlation frontier (the segment
			// that completes the frontier's block ends there), the scan's
			// lag behind it, the refine radius behind the scan and one feed,
			// at a quarter of the full rate and rounded up.
			{name: "u", len: func() int { return len(d.u) },
				max: (((p+1)*blk-lead+sDec+dDec)*coarseFactor+2*refineRadius+feedChunk)/fineFactor + 1},
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
// 24 k at steady state; a single 8192-point segment spent 44.8 k). The
// refiner may make at most 1.3 passes over its templates per candidate it
// refines (the initial eight-lag span is one pass; split into fours it was
// two, ≈ 2.1 per candidate with the extensions), and spend at most 0.6× the
// multiply-adds that full-rate 48000-MAC dots spent on this input.
func TestDetectorWorkCounts(t *testing.T) {
	// fullRateMACs is what scoring the same lags with 48000-MAC dots over
	// 48 kHz audio spent per refined candidate here: 12 candidates, eight
	// lags each.
	const fullRateMACs = 8 * 48000
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
	macsPer := float64(w.refineMACs) / float64(max(w.refined, 1))
	t.Logf("%.1f s: %d detections, %.0f coarse transform points/s, %d candidates refined in %d template passes (%.2f each)",
		seconds, dets, pointsPerSec, w.refined, w.passes, passesPer)
	t.Logf("refiner: %.0f multiply-adds per candidate, full-rate dots %d (%.2f×)",
		macsPer, fullRateMACs, macsPer/fullRateMACs)
	if dets < 5 || w.refined < dets {
		t.Fatalf("%d detections from %d refined candidates: the stages were not exercised", dets, w.refined)
	}
	if pointsPerSec > 25000 {
		t.Errorf("coarse stage: %.0f transform points per second of audio, limit 25000", pointsPerSec)
	}
	if passesPer > 1.3 {
		t.Errorf("refiner: %.2f template passes per refined candidate, limit 1.3", passesPer)
	}
	if macsPer > 0.6*fullRateMACs {
		t.Errorf("refiner: %.0f multiply-adds per refined candidate, limit %.0f", macsPer, 0.6*fullRateMACs)
	}
}

// The fine stage's score from the 12 kHz history must track the exact
// full-rate correlation Z(t) = Σ_k w[k]·x[t+k] (Eq. 3, as the batch
// pipeline computes it) where the refiner reads it: at every lag within
// ±refineRadius of each parity-suite detection the error stays under 2 %
// of the window's largest |Z| (≈ 1.3 % measured), scored eight lags per
// call as the refiner scores them. A history one 12 kHz sample out of
// register must fail the same bound.
func TestBandScoreMatchesDirectDot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const bound = 0.02
	for _, sc := range parityScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			rec := sc.rec(t)
			st := ComputeStages(rec, Config{Seq: testSeq})
			d := NewIncrementalDetector(Config{Seq: testSeq})
			d.ingest(rec)
			lg := len(d.fine[0])
			// worst returns the window's largest error relative to its
			// largest |Z|, scored with the history starting at uBase.
			worst := func(s, uBase int) float64 {
				d.uBase = uBase
				var band [2*refineRadius + 1]float64
				for at := s - refineRadius; at <= s+refineRadius; at += refineRun {
					base := min(at, s+refineRadius-refineRun+1)
					d.scoreLags((*[refineRun]float64)(band[base-s+refineRadius:]), base)
				}
				var peak, err float64
				for i, z := range st.Raw[s-refineRadius : s+refineRadius+1] {
					peak = max(peak, math.Abs(z))
					err = max(err, math.Abs(band[i]-z))
				}
				return err / peak
			}
			checked, worstSeen := 0, 0.0
			for _, det := range st.Confirmed {
				s := det.Sample
				if s < refineRadius+fineFactor || (s+refineRadius)/fineFactor+lg+2 > len(d.u) ||
					s+refineRadius >= len(st.Raw) {
					continue
				}
				e := worst(s, 0)
				if e > bound {
					t.Errorf("detection at %d: score off by %.2f %% of the window's peak, bound %.0f %%", s, 100*e, 100*bound)
				}
				worstSeen = max(worstSeen, e)
				if e := worst(s, 1); e <= bound {
					t.Errorf("detection at %d: history shifted by one sample still within %.2f %%", s, 100*e)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no detection to check")
			}
			t.Logf("%d detections, worst error %.2f %% of the window's peak", checked, 100*worstSeen)
		})
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
// against the retained history, against the batch oracle. lo is clipped at
// the history's start when a marker starts within refineRadius of the
// stream start. hi is clipped at the last lag whose 12 kHz template window
// ends inside the history, when it ends on the newest sample. Feed never
// produces that: a coarse candidate needs the scan's normalization
// lookahead, a tenth of a second past its window. So the test refines
// every candidate a second time with the history cut to end where the
// batch winner's window ends, keeping the detector's state as is.
func TestRefineWindowEdges(t *testing.T) {
	marked, _ := makeMarked(t, 6, 0.5, 2)
	rec := acoustic.DefaultChannel().Transmit(marked).Samples
	cfg := Config{Seq: testSeq}

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
				// The winner's window is [q, q+len(G̃_p)) for lag 4q+p, and
				// the cut makes 4q+3 the last lag scored.
				lg := len(d.fine[0])
				end := want.Sample/fineFactor + lg
				if !found || end-d.uBase > len(d.u) {
					continue
				}
				// Refine with the newest sample at end−1, then restore the
				// stream and the calibration sums the call accumulated.
				full, gEx, gRec := d.u, d.gEx, d.gRec
				d.u = d.u[:end-d.uBase]
				got, _ := d.refine(p)
				d.u, d.gEx, d.gRec = full, gEx, gRec
				if clip := (end-lg)*fineFactor + fineFactor - 1; t0+refineRadius <= clip {
					t.Fatalf("candidate %d: hi not clipped at %d", t0, clip)
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
