package pn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

func TestSequenceBandLimited(t *testing.T) {
	seq := NewSequence(1, DefaultLength)
	if seq.Len() != DefaultLength {
		t.Fatalf("len %d", seq.Len())
	}
	inBand := dsp.BandPower(seq.Samples, audio.SampleRate, BandLowHz, BandHighHz)
	below := dsp.BandPower(seq.Samples, audio.SampleRate, 0, 5000)
	above := dsp.BandPower(seq.Samples, audio.SampleRate, 13000, 24000)
	if inBand <= 0 {
		t.Fatal("no in-band energy")
	}
	if below > inBand/200 || above > inBand/200 {
		t.Fatalf("out-of-band leakage: below=%g above=%g in=%g", below, above, inBand)
	}
	if math.Abs(dsp.RMS(seq.Samples)-1) > 1e-9 {
		t.Fatalf("RMS %g want 1", dsp.RMS(seq.Samples))
	}
}

func TestSequenceDeterministicPerSeed(t *testing.T) {
	a := NewSequence(42, 4800)
	b := NewSequence(42, 4800)
	c := NewSequence(43, 4800)
	diff := false
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed must match")
		}
		if a.Samples[i] != c.Samples[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds must differ")
	}
}

// The marker every session injects is pinned bit for bit: its samples
// hash to the digest the cached-plan filter produced, whether the call
// filters or copies the memo, and no call's samples alias another's.
func TestSequenceGoldenAndUnshared(t *testing.T) {
	const golden = "34fd8e44479041c8e734123e90d9b844caa9845585217c4b780812f176eaa3f1"
	digest := func(s []float64) string {
		h := sha256.New()
		for _, v := range s {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	a := NewSequence(4242, DefaultLength)
	if d := digest(a.Samples); d != golden {
		t.Fatalf("NewSequence(4242) digest %s, golden %s", d, golden)
	}
	a.Samples[0]++
	if d := digest(NewSequence(4242, DefaultLength).Samples); d != golden {
		t.Fatalf("after a caller changed its copy, NewSequence(4242) digest %s, golden %s", d, golden)
	}
}

func TestSequenceSharpAutocorrelation(t *testing.T) {
	// The whole point of PN markers: the autocorrelation peak must dwarf
	// all off-peak values (paper contrasts this with game audio).
	seq := NewSequence(2, DefaultLength)
	// Correlate the sequence against a padded copy of itself.
	sig := make([]float64, 3*DefaultLength)
	copy(sig[DefaultLength:], seq.Samples)
	z := dsp.CrossCorrelate(sig, seq.Samples)
	peakIdx := argMaxAbs(z)
	if peakIdx != DefaultLength {
		t.Fatalf("peak at %d want %d", peakIdx, DefaultLength)
	}
	peak := math.Abs(z[peakIdx])
	var offMax float64
	for i, v := range z {
		if i > peakIdx-100 && i < peakIdx+100 {
			continue
		}
		if a := math.Abs(v); a > offMax {
			offMax = a
		}
	}
	if peak < 10*offMax {
		t.Fatalf("autocorrelation not sharp: peak %g offMax %g", peak, offMax)
	}
}

func TestAmplitudeTrackerEq2(t *testing.T) {
	tr := &AmplitudeTracker{Gamma: 0.4}
	// Window with known band RMS: a 9 kHz sine of amplitude 0.4 has band
	// RMS ~0.283.
	win := audio.Tone(audio.SampleRate, 9000, 0.02, 0.4).Samples
	a1 := tr.Update(win)
	want := 0.4 / math.Sqrt2
	if math.Abs(a1-want) > 0.03 {
		t.Fatalf("first update %g want ~%g", a1, want)
	}
	// Silence: a_k decays by gamma each step (first update seeds, so now
	// the recursion applies).
	sil := make([]float64, TrackerWindow)
	a2 := tr.Update(sil)
	if math.Abs(a2-0.4*a1) > 1e-9 {
		t.Fatalf("decay: %g want %g", a2, 0.4*a1)
	}
	a3 := tr.Update(sil)
	if math.Abs(a3-0.4*a2) > 1e-9 {
		t.Fatalf("decay2: %g want %g", a3, 0.4*a2)
	}
	if tr.a != a3 {
		t.Fatal("tracked amplitude mismatch")
	}
}

func TestTrackerConvergesToSteadyState(t *testing.T) {
	tr := NewAmplitudeTracker()
	win := audio.Tone(audio.SampleRate, 8000, 0.02, 0.5).Samples
	var a float64
	for i := 0; i < 50; i++ {
		a = tr.Update(win)
	}
	want := bandRMS(win)
	if math.Abs(a-want) > 1e-6 {
		t.Fatalf("steady state %g want %g", a, want)
	}
}

func TestTrackerIgnoresOutOfBandAudio(t *testing.T) {
	tr := NewAmplitudeTracker()
	// Loud 500 Hz content has almost no energy in the 6-12 kHz band.
	win := audio.Tone(audio.SampleRate, 500, 0.02, 0.9).Samples
	a := tr.Update(win)
	if a > 0.02 {
		t.Fatalf("tracker should ignore low-frequency energy, got %g", a)
	}
}

func TestMarkInjectionSchedule(t *testing.T) {
	seq := NewSequence(3, DefaultLength)
	clip := audio.Tone(audio.SampleRate, 8000, 5.0, 0.3)
	marked, log := Mark(clip, seq, 0.5)
	if marked.Len() != clip.Len() {
		t.Fatalf("length changed: %d vs %d", marked.Len(), clip.Len())
	}
	if len(log) != 5 {
		t.Fatalf("%d markers in 5 s, want 5", len(log))
	}
	for i, inj := range log {
		if inj.StartSample != i*audio.SampleRate {
			t.Fatalf("marker %d at %d, want %d", i, inj.StartSample, i*audio.SampleRate)
		}
		if inj.FrameID != inj.StartSample/TrackerWindow {
			t.Fatalf("frame id %d inconsistent", inj.FrameID)
		}
		if inj.Amplitude <= 0 {
			t.Fatalf("marker %d amplitude %g", i, inj.Amplitude)
		}
	}
}

func TestMarkedAudioContainsDetectableMarker(t *testing.T) {
	seq := NewSequence(4, DefaultLength)
	clip := audio.Tone(audio.SampleRate, 8000, 3.0, 0.3)
	marked, log := Mark(clip, seq, 0.5)
	// The difference signal is exactly the injected markers; correlating
	// the marked signal against the sequence must peak at each injection.
	z := dsp.CrossCorrelate(marked.Samples, seq.Samples)
	for _, inj := range log {
		if inj.StartSample >= len(z) {
			continue
		}
		// Find the local argmax within +-50 samples.
		best, bestIdx := 0.0, -1
		for i := max(0, inj.StartSample-50); i < min(len(z), inj.StartSample+50); i++ {
			if a := math.Abs(z[i]); a > best {
				best, bestIdx = a, i
			}
		}
		if bestIdx != inj.StartSample {
			t.Fatalf("correlation peak at %d, want %d", bestIdx, inj.StartSample)
		}
	}
}

func TestMarkerAmplitudeTracksGameAudio(t *testing.T) {
	seq := NewSequence(5, DefaultLength)
	// Loud then quiet 8 kHz content.
	loud := audio.Tone(audio.SampleRate, 8000, 2.0, 0.6)
	quiet := audio.Tone(audio.SampleRate, 8000, 2.0, 0.06)
	clip := audio.NewBuffer(audio.SampleRate, 0)
	clip.Samples = append(clip.Samples, loud.Samples...)
	clip.Samples = append(clip.Samples, quiet.Samples...)
	_, log := Mark(audio.FromSamples(audio.SampleRate, clip.Samples), seq, 0.5)
	if len(log) != 4 {
		t.Fatalf("markers %d", len(log))
	}
	// Marker 1 (injected during loud content, tracker warmed) must be
	// louder than marker 3 (quiet content, tracker settled).
	if log[1].Amplitude < 5*log[3].Amplitude {
		t.Fatalf("amplitude not tracking: loud %g quiet %g", log[1].Amplitude, log[3].Amplitude)
	}
}

func TestMinAmplitudeFloor(t *testing.T) {
	seq := NewSequence(6, DefaultLength)
	silence := audio.NewBuffer(audio.SampleRate, 2*audio.SampleRate)
	marked, log := Mark(silence, seq, 0.5)
	if len(log) == 0 {
		t.Fatal("no markers")
	}
	for _, inj := range log {
		if inj.Amplitude < MinAmplitude*0.5-1e-12 {
			t.Fatalf("amplitude %g below floor", inj.Amplitude)
		}
	}
	if marked.RMS() == 0 {
		t.Fatal("marked silence should contain marker energy")
	}
}

func TestProcessFramePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInjector(NewSequence(7, 4800), 0.5).ProcessFrame(make([]float64, 100))
}

func TestConstantMark(t *testing.T) {
	seq := NewSequence(8, DefaultLength)
	b, log := ConstantMark(3*audio.SampleRate, seq, 6)
	if len(log) != 3 { // markers at 0, 1 and 2 s all fit fully in 3 s
		t.Fatalf("markers %d want 3", len(log))
	}
	wantAmp := MinAmplitude * math.Pow(10, 6.0/20)
	for _, inj := range log {
		if math.Abs(inj.Amplitude-wantAmp) > 1e-12 {
			t.Fatalf("amplitude %g want %g", inj.Amplitude, wantAmp)
		}
	}
	if b.RMS() <= 0 {
		t.Fatal("constant-marked buffer silent")
	}
}

func TestInjectionPropertyMarkerEnergyScalesWithC(t *testing.T) {
	seq := NewSequence(9, DefaultLength)
	clip := audio.Tone(audio.SampleRate, 8000, 2.0, 0.3)
	f := func(cSel uint8) bool {
		c := 0.1 + float64(cSel%50)/10 // 0.1 .. 5.0
		marked, _ := Mark(clip, seq, c)
		var diff float64
		for i := range clip.Samples {
			d := marked.Samples[i] - clip.Samples[i]
			diff += d * d
		}
		// Energy of injected content scales with c^2; check within 2x.
		ref, _ := Mark(clip, seq, 0.5)
		var refDiff float64
		for i := range clip.Samples {
			d := ref.Samples[i] - clip.Samples[i]
			refDiff += d * d
		}
		ratio := diff / refDiff
		want := (c / 0.5) * (c / 0.5)
		return ratio > want/2 && ratio < want*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// refProcessFrame is ProcessFrame with the per-sample range test it had
// before it mixed each marker over its covered slice; the two must agree
// bit for bit.
func refProcessFrame(in *Injector, frame []float64) {
	amp := in.tracker.Update(frame)
	if amp < MinAmplitude {
		amp = MinAmplitude
	}
	scaled := in.C * amp
	if in.pos >= in.nextMarker {
		in.active = append(in.active, in.pos)
		in.nextMarker = in.pos + in.Interval
	}
	w := in.Seq.Samples
	kept := in.active[:0]
	for _, start := range in.active {
		offset := in.pos - start
		for i := 0; i < len(frame); i++ {
			mi := offset + i
			if mi < 0 || mi >= len(w) {
				continue
			}
			frame[i] += scaled * w[mi]
		}
		if offset+len(frame) < len(w) {
			kept = append(kept, start)
		}
	}
	in.active = kept
	in.pos += len(frame)
}

// TestProcessFrameMatchesReference drives ProcessFrame and the reference
// loop over the same game audio with markers that start on a frame,
// straddle one or two frame boundaries, end mid-frame and overlap each
// other, and requires identical output bits in every frame.
func TestProcessFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ length, interval int }{
		{1500, 700},  // ends 540 samples into its second frame; two overlap
		{2500, 2000}, // covers three frames
		{960, 960},   // exactly one frame
		{DefaultLength, audio.SampleRate},
	} {
		seq := NewSequence(7, c.length)
		got, want := NewInjector(seq, 0.5), NewInjector(seq, 0.5)
		got.Interval, want.Interval = c.interval, c.interval
		a := make([]float64, TrackerWindow)
		b := make([]float64, TrackerWindow)
		for f := 0; f < 200; f++ {
			for i := range a {
				a[i] = rng.NormFloat64() * 0.2
			}
			copy(b, a)
			got.ProcessFrame(a)
			refProcessFrame(want, b)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("length %d interval %d frame %d sample %d: %v, reference %v",
						c.length, c.interval, f, i, a[i], b[i])
				}
			}
		}
		if got.InjectionCount() < 2 {
			t.Fatalf("length %d interval %d: only %d markers injected", c.length, c.interval, got.InjectionCount())
		}
	}
}

func BenchmarkProcessFrame(b *testing.B) {
	seq := NewSequence(10, DefaultLength)
	inj := NewInjector(seq, 0.5)
	frame := audio.Tone(audio.SampleRate, 8000, 0.02, 0.3).Samples
	work := make([]float64, len(frame))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, frame)
		inj.ProcessFrame(work)
	}
}

// argMaxAbs returns the index of the element with the largest absolute
// value, or -1 for an empty slice.
func argMaxAbs(x []float64) int {
	idx := -1
	for i, v := range x {
		if idx < 0 || math.Abs(v) > math.Abs(x[idx]) {
			idx = i
		}
	}
	return idx
}
