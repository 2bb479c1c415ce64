package estimator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ekho/internal/acoustic"
	"ekho/internal/audio"
	"ekho/internal/gamesynth"
	"ekho/internal/pn"
)

var testSeq = pn.NewSequence(100, pn.DefaultLength)

// makeMarked builds seconds of game audio with markers at C. As in any
// real capture, the recording continues for a moment after the clip ends
// (1.2 s of silence) so the final marker's correlation and normalization
// windows are fully contained.
func makeMarked(t testing.TB, seconds float64, c float64, clipIdx int) (*audio.Buffer, []pn.Injection) {
	t.Helper()
	clip := gamesynth.Generate(gamesynth.Catalog()[clipIdx], seconds)
	marked, log := pn.Mark(clip, testSeq, c)
	marked.Samples = append(marked.Samples, make([]float64, int(1.2*audio.SampleRate))...)
	return marked, log
}

func TestDetectMarkersCleanSignal(t *testing.T) {
	marked, log := makeMarked(t, 5, 0.5, 0)
	dets := DetectMarkers(marked.Samples, Config{Seq: testSeq})
	if len(dets) != len(log) {
		t.Fatalf("detections %d want %d", len(dets), len(log))
	}
	for i, d := range dets {
		// Normalization asymmetry can skew the peak by a few samples;
		// anything below ~0.1 ms honors the sub-millisecond claim.
		if abs(d.Sample-log[i].StartSample) > 5 {
			t.Fatalf("detection %d at %d want %d", i, d.Sample, log[i].StartSample)
		}
		if d.Strength < 5 {
			t.Fatalf("strength %g below theta", d.Strength)
		}
	}
}

func TestDetectMarkersThroughChannel(t *testing.T) {
	marked, log := makeMarked(t, 5, 0.5, 2)
	ch := acoustic.DefaultChannel()
	recv := ch.Transmit(marked)
	dets := DetectMarkers(recv.Samples, Config{Seq: testSeq})
	if len(dets) < len(log)-1 {
		t.Fatalf("detections %d want >= %d", len(dets), len(log)-1)
	}
	// Channel delay is 6 ms = 288 samples.
	for _, d := range dets {
		// Find nearest injection.
		bestErr := math.MaxInt64
		for _, inj := range log {
			if e := abs(d.Sample - (inj.StartSample + 288)); e < bestErr {
				bestErr = e
			}
		}
		if bestErr > 48 { // within 1 ms
			t.Fatalf("detection offset %d samples from expected", bestErr)
		}
	}
}

func TestNoFalsePositivesWithoutMarkers(t *testing.T) {
	// Clean game audio with NO markers must produce zero detections —
	// spurious peaks cause large estimation errors (paper §4.2).
	for idx := 0; idx < 4; idx++ {
		clip := gamesynth.Generate(gamesynth.Catalog()[idx], 5)
		dets := DetectMarkers(clip.Samples, Config{Seq: testSeq})
		if len(dets) != 0 {
			t.Fatalf("clip %d: %d false detections", idx, len(dets))
		}
	}
}

func TestNoFalsePositivesOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	noise := audio.NewBuffer(audio.SampleRate, 5*audio.SampleRate)
	for i := range noise.Samples {
		noise.Samples[i] = rng.NormFloat64() * 0.3
	}
	if dets := DetectMarkers(noise.Samples, Config{Seq: testSeq}); len(dets) != 0 {
		t.Fatalf("%d false detections on white noise", len(dets))
	}
}

func TestDetectShortRecording(t *testing.T) {
	if dets := DetectMarkers(make([]float64, 100), Config{Seq: testSeq}); dets != nil {
		t.Fatal("recording shorter than the marker should give nil")
	}
	if dets := DetectMarkers(make([]float64, 100), Config{}); dets != nil {
		t.Fatal("nil sequence should give nil")
	}
}

func TestSubMillisecondAccuracyProperty(t *testing.T) {
	// Inject a known fractional delay into the recording path; the
	// estimator must recover it to sub-millisecond accuracy (§6.3 claim).
	marked, log := makeMarked(t, 4, 0.5, 4)
	f := func(delaySel uint16) bool {
		delayMs := float64(delaySel%300) - 150 // -150 .. +149 ms
		delaySamples := delayMs / 1000 * audio.SampleRate
		shifted := shiftSignal(marked.Samples, int(delaySamples))
		dets := DetectMarkers(shifted, Config{Seq: testSeq})
		if len(dets) == 0 {
			return false
		}
		// markerLocalTimes: accessory carried markers at their injection
		// times (local clock = recording clock here).
		var mts []float64
		for _, inj := range log {
			mts = append(mts, float64(inj.StartSample)/audio.SampleRate)
		}
		ms := MatchISD(dets, 0, audio.SampleRate, mts, Config{Seq: testSeq})
		if len(ms) == 0 {
			return false
		}
		for _, m := range ms {
			if math.Abs(m.ISDSeconds-float64(int(delaySamples))/audio.SampleRate) > 0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchISDNegativeAndPositive(t *testing.T) {
	dets := []Detection{{Sample: 48000, Strength: 10}}
	cfg := Config{Seq: testSeq}
	// Detection at local time 1.0; marker at 1.2 → ISD = -0.2.
	ms := MatchISD(dets, 0, audio.SampleRate, []float64{1.2}, cfg)
	if len(ms) != 1 || math.Abs(ms[0].ISDSeconds-(-0.2)) > 1e-9 {
		t.Fatalf("negative ISD: %+v", ms)
	}
	// Marker at 0.7 → ISD = +0.3.
	ms = MatchISD(dets, 0, audio.SampleRate, []float64{0.7}, cfg)
	if len(ms) != 1 || math.Abs(ms[0].ISDSeconds-0.3) > 1e-9 {
		t.Fatalf("positive ISD: %+v", ms)
	}
}

func TestMatchISDRejectsBeyondMax(t *testing.T) {
	dets := []Detection{{Sample: 0, Strength: 10}}
	cfg := Config{Seq: testSeq}
	ms := MatchISD(dets, 0, audio.SampleRate, []float64{0.8}, cfg)
	if len(ms) != 0 {
		t.Fatalf("|ISD| 0.8 s beyond 0.5 s bound should be rejected: %+v", ms)
	}
	if MatchISD(dets, 0, audio.SampleRate, nil, cfg) != nil {
		t.Fatal("no marker times should give nil")
	}
}

func TestMatchISDPicksNearestMarker(t *testing.T) {
	dets := []Detection{{Sample: 2 * 48000, Strength: 10}} // t=2.0
	cfg := Config{Seq: testSeq}
	ms := MatchISD(dets, 0, audio.SampleRate, []float64{1.0, 1.9, 3.0}, cfg)
	if len(ms) != 1 || math.Abs(ms[0].ISDSeconds-0.1) > 1e-9 {
		t.Fatalf("nearest matching: %+v", ms)
	}
	if ms[0].MarkerTime != 1.9 {
		t.Fatalf("marker time %g", ms[0].MarkerTime)
	}
}

func TestComputeStagesShapes(t *testing.T) {
	marked, log := makeMarked(t, 3, 0.5, 6)
	st := ComputeStages(marked.Samples, Config{Seq: testSeq})
	if len(st.Raw) == 0 || len(st.Normalized) != len(st.Raw) || len(st.Envelope) != len(st.Raw) {
		t.Fatal("stage lengths inconsistent")
	}
	if len(st.Confirmed) != len(log) {
		t.Fatalf("confirmed %d want %d", len(st.Confirmed), len(log))
	}
	// Normalized correlation should have ~unit off-peak std (App. A).
	var sum, sum2 float64
	n := 0
	for i, v := range st.Normalized {
		if nearAnyMarker(i, log) {
			continue
		}
		sum += v
		sum2 += v * v
		n++
	}
	std := math.Sqrt(sum2 / float64(n))
	if std < 0.5 || std > 2.0 {
		t.Fatalf("off-peak normalized RMS %g, want ~1 (folded normal)", std)
	}
	// Degenerate input.
	if st := ComputeStages(nil, Config{Seq: testSeq}); st.Raw != nil {
		t.Fatal("nil recording should give empty stages")
	}
}

func nearAnyMarker(i int, log []pn.Injection) bool {
	for _, inj := range log {
		if abs(i-inj.StartSample) < 2000 {
			return true
		}
	}
	return false
}

func TestEnvelopeDecay(t *testing.T) {
	x := make([]float64, 48000)
	x[0] = 10
	env := envelope(x, 0.99995)
	// After 1 s the envelope of an impulse should decay to ~0.09 of the
	// peak (0.99995^48000 ≈ 0.0907), per the paper's design rationale.
	ratio := env[47999] / env[0]
	if math.Abs(ratio-0.0907) > 0.01 {
		t.Fatalf("decay ratio %g want ~0.09", ratio)
	}
	// Envelope is always >= the signal and monotone between peaks.
	for i := 1; i < len(env); i++ {
		if env[i] > env[i-1] && x[i] == 0 {
			t.Fatal("envelope rose without signal")
		}
	}
}

func TestPickPeaksThreshold(t *testing.T) {
	env := []float64{0, 1, 6, 1, 0, 4, 9, 4, 0}
	peaks := pickPeaks(env, 5)
	if len(peaks) != 2 || peaks[0] != 2 || peaks[1] != 6 {
		t.Fatalf("peaks %v", peaks)
	}
	if got := pickPeaks(env, 100); len(got) != 0 {
		t.Fatalf("high threshold should kill peaks: %v", got)
	}
}

func TestFilterPeaksRequiresCompanion(t *testing.T) {
	cfg := Config{Seq: testSeq}.withDefaults()
	env := make([]float64, 200000)
	// Lone peak: must be rejected.
	env[50000] = 8
	out := filterPeaks([]int{50000}, env, cfg)
	if len(out) != 0 {
		t.Fatalf("lone peak survived: %+v", out)
	}
	// Pair separated by L: both survive.
	env2 := make([]float64, 200000)
	env2[50000], env2[50000+cfg.IntervalSamples] = 8, 7
	out = filterPeaks([]int{50000, 50000 + cfg.IntervalSamples}, env2, cfg)
	if len(out) != 2 {
		t.Fatalf("aligned pair should survive: %+v", out)
	}
	// Pair separated by L+delta+1: rejected.
	env3 := make([]float64, 200000)
	off := cfg.IntervalSamples + peakDelta + 1
	env3[50000], env3[50000+off] = 8, 7
	out = filterPeaks([]int{50000, 50000 + off}, env3, cfg)
	if len(out) != 0 {
		t.Fatalf("misaligned pair should be rejected: %+v", out)
	}
}

func TestFilterPeaksDominance(t *testing.T) {
	cfg := Config{Seq: testSeq}.withDefaults()
	env := make([]float64, 200000)
	l := cfg.IntervalSamples
	// Two peaks 10 samples apart; the smaller must be suppressed, and the
	// larger kept (companion at +L).
	env[50000], env[50010] = 8, 9
	env[50010+l] = 7
	out := filterPeaks([]int{50000, 50010, 50010 + l}, env, cfg)
	for _, d := range out {
		if d.Sample == 50000 {
			t.Fatal("dominated peak survived")
		}
	}
	found := false
	for _, d := range out {
		if d.Sample == 50010 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dominant peak missing: %+v", out)
	}
}

func TestNormalizeUnitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := make([]float64, 100000)
	for i := range z {
		z[i] = rng.NormFloat64() * 37 // arbitrary scale
	}
	zn := normalize(z, 4800)
	var sum2 float64
	for _, v := range zn[:90000] {
		sum2 += v * v
	}
	rms := math.Sqrt(sum2 / 90000)
	if math.Abs(rms-1) > 0.05 {
		t.Fatalf("normalized RMS %g want ~1", rms)
	}
	if out := normalize(nil, 100); len(out) != 0 {
		t.Fatal("nil input")
	}
}

func TestEstimateEndToEndOffline(t *testing.T) {
	// Full §6.3-style offline methodology: marked clip through channel,
	// known ground-truth x, timestamps as in the paper.
	marked, log := makeMarked(t, 6, 0.5, 8)
	ch := acoustic.Channel{Mic: acoustic.XboxHeadset, Attenuation: 0.1, AmbientLevel: 0.0005, NoiseSeed: 3}
	const xMs = 123.0 // ground truth ISD
	recv := ch.Transmit(marked)
	shifted := audio.FromSamples(audio.SampleRate, shiftSignal(recv.Samples, int(xMs/1000*audio.SampleRate)))
	var mts []float64
	for _, inj := range log {
		mts = append(mts, float64(inj.StartSample)/audio.SampleRate)
	}
	ms := Estimate(shifted, 0, mts, Config{Seq: testSeq})
	if len(ms) < len(log)-1 {
		t.Fatalf("measurements %d want >= %d", len(ms), len(log)-1)
	}
	for _, m := range ms {
		if math.Abs(m.ISDSeconds-xMs/1000) > 0.001 {
			t.Fatalf("ISD %g want %g ± 1ms", m.ISDSeconds, xMs/1000)
		}
	}
}

func shiftSignal(x []float64, shift int) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		src := i - shift
		if src >= 0 && src < len(x) {
			out[i] = x[src]
		}
	}
	return out
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func BenchmarkDetectMarkers5s(b *testing.B) {
	clip := gamesynth.Generate(gamesynth.Catalog()[0], 5)
	marked, _ := pn.Mark(clip, testSeq, 0.5)
	cfg := Config{Seq: testSeq}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectMarkers(marked.Samples, cfg)
	}
}

func TestMatchISDOnePerMarkerProperty(t *testing.T) {
	// Property: no matter how many detections cluster around a marker,
	// at most one measurement per marker is emitted, and it prefers the
	// earliest strong arrival (direct path over echo).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Seq: testSeq}
		markers := []float64{1, 2, 3}
		var dets []Detection
		for _, mt := range markers {
			n := 1 + rng.Intn(4)
			for k := 0; k < n; k++ {
				offset := rng.Float64()*0.2 - 0.1
				dets = append(dets, Detection{
					Sample:   int((mt + offset) * audio.SampleRate),
					Strength: 5 + rng.Float64()*40,
				})
			}
		}
		ms := MatchISD(dets, 0, audio.SampleRate, markers, cfg)
		if len(ms) > len(markers) {
			return false
		}
		seen := map[float64]bool{}
		for _, m := range ms {
			if seen[m.MarkerTime] {
				return false
			}
			seen[m.MarkerTime] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchISDPrefersDirectPathOverEcho(t *testing.T) {
	cfg := Config{Seq: testSeq}
	// Direct path at +6 ms (strength 20), echo at +14 ms (strength 28).
	dets := []Detection{
		{Sample: int(1.006 * audio.SampleRate), Strength: 20},
		{Sample: int(1.014 * audio.SampleRate), Strength: 28},
	}
	ms := MatchISD(dets, 0, audio.SampleRate, []float64{1.0}, cfg)
	if len(ms) != 1 {
		t.Fatalf("measurements %d", len(ms))
	}
	if math.Abs(ms[0].ISDSeconds-0.006) > 1e-6 {
		t.Fatalf("picked %.4f, want the earlier direct path at 0.006", ms[0].ISDSeconds)
	}
	// But a dominant late peak (early one is noise-weak) wins.
	dets = []Detection{
		{Sample: int(1.006 * audio.SampleRate), Strength: 6},
		{Sample: int(1.014 * audio.SampleRate), Strength: 40},
	}
	ms = MatchISD(dets, 0, audio.SampleRate, []float64{1.0}, cfg)
	if len(ms) != 1 || math.Abs(ms[0].ISDSeconds-0.014) > 1e-6 {
		t.Fatalf("weak early peak should lose: %+v", ms)
	}
}
