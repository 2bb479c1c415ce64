package ekho_test

import (
	"math"
	"testing"

	"ekho"
	"ekho/internal/gamesynth"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	seq := ekho.NewMarkerSequence(1)
	game := gamesynth.Generate(gamesynth.Catalog()[0], 4)
	marked, log := ekho.AddMarkers(game, seq, ekho.DefaultMarkerVolume)
	if marked.Len() != game.Len() || len(log) != 4 {
		t.Fatalf("mark: len %d, injections %d", marked.Len(), len(log))
	}
	// Pretend the recording is the marked audio delayed by 50 ms.
	const isd = 0.050
	rec := ekho.NewBuffer(ekho.SampleRate, marked.Len()+ekho.SampleRate)
	rec.MixInto(marked.Samples, int(isd*ekho.SampleRate), 1)
	var markerTimes []float64
	for _, inj := range log {
		markerTimes = append(markerTimes, float64(inj.StartSample)/ekho.SampleRate)
	}
	ms := ekho.EstimateISD(rec, 0, markerTimes, seq)
	if len(ms) < len(log)-1 {
		t.Fatalf("measurements %d", len(ms))
	}
	for _, m := range ms {
		if math.Abs(m.ISDSeconds-isd) > 0.001 {
			t.Fatalf("ISD %g want %g", m.ISDSeconds, isd)
		}
	}
}

func TestPublicDetect(t *testing.T) {
	seq := ekho.NewMarkerSequence(2)
	game := gamesynth.Generate(gamesynth.Catalog()[2], 3)
	marked, log := ekho.AddMarkers(game, seq, 0.5)
	marked.Samples = append(marked.Samples, make([]float64, ekho.SampleRate)...)
	dets := ekho.DetectMarkers(marked, seq)
	if len(dets) != len(log) {
		t.Fatalf("detections %d want %d", len(dets), len(log))
	}
}

func TestPublicConstantMarkers(t *testing.T) {
	seq := ekho.NewMarkerSequence(3)
	b, log := ekho.AddConstantMarkers(3*ekho.SampleRate, seq, 9)
	if b.Len() != 3*ekho.SampleRate || len(log) != 3 {
		t.Fatalf("constant markers: %d, %d", b.Len(), len(log))
	}
}

func TestPublicCompensator(t *testing.T) {
	c := ekho.NewCompensator(ekho.CompensatorConfig{})
	a := c.Offer(0, 0.1)
	if a == nil || a.Stream != ekho.AccessoryStream {
		t.Fatalf("action %+v", a)
	}
}

func TestPublicSession(t *testing.T) {
	sc := ekho.DefaultSessionScenario()
	sc.DurationSec = 25
	res := ekho.RunSession(sc)
	if len(res.Trace) == 0 || len(res.Measurements) == 0 {
		t.Fatal("session produced no data")
	}
}

func TestPublicStreamingEstimator(t *testing.T) {
	seq := ekho.NewMarkerSequence(4)
	game := gamesynth.Generate(gamesynth.Catalog()[4], 5)
	marked, log := ekho.AddMarkers(game, seq, 0.5)
	est := ekho.NewEstimator(seq)
	for _, inj := range log {
		est.AddMarkerTime(float64(inj.StartSample) / ekho.SampleRate)
	}
	var got []ekho.Measurement
	for i := 0; i+ekho.FrameSamples <= marked.Len(); i += ekho.FrameSamples {
		got = append(got, est.AddChat(marked.Samples[i:i+ekho.FrameSamples], float64(i)/ekho.SampleRate)...)
	}
	if len(got) == 0 {
		t.Fatal("no streaming measurements")
	}
	for _, m := range got {
		if math.Abs(m.ISDSeconds) > 0.001 {
			t.Fatalf("streaming ISD %g want ~0", m.ISDSeconds)
		}
	}
}

func TestPublicMultiSession(t *testing.T) {
	sc := ekho.DefaultMultiScenario()
	sc.DurationSec = 25
	res := ekho.RunMultiSession(sc)
	if len(res.Traces) != len(sc.Screens) {
		t.Fatalf("traces %d want %d", len(res.Traces), len(sc.Screens))
	}
	if res.Actions == 0 {
		t.Fatal("no joint actions")
	}
}

func TestPublicHapticsSession(t *testing.T) {
	sc := ekho.DefaultSessionScenario()
	sc.DurationSec = 25
	sc.HapticsEnabled = true
	res := ekho.RunSession(sc)
	if len(res.Haptics) == 0 {
		t.Fatal("no haptic records")
	}
	var ev ekho.HapticEvent = res.Haptics[0].Event
	if ev.Intensity <= 0 {
		t.Fatal("haptic intensity")
	}
}

func TestPublicDetectNoMarkers(t *testing.T) {
	seq := ekho.NewMarkerSequence(9)
	noise := ekho.NewBuffer(ekho.SampleRate, 2*ekho.SampleRate)
	if dets := ekho.DetectMarkers(noise, seq); len(dets) != 0 {
		t.Fatalf("silence produced %d detections", len(dets))
	}
}
