package estimator

import (
	"math"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/gamesynth"
)

func TestStreamerEmitsMeasurementsOnce(t *testing.T) {
	marked, log := makeMarked(t, 8, 0.5, 1)
	s := NewStreamer(Config{Seq: testSeq})
	for _, inj := range log {
		s.AddMarkerTime(float64(inj.StartSample) / audio.SampleRate)
	}
	var all []Measurement
	// Feed 20 ms frames with their capture timestamps.
	for i := 0; i+audio.FrameSamples <= marked.Len(); i += audio.FrameSamples {
		start := float64(i) / audio.SampleRate
		ms := s.AddChat(marked.Samples[i:i+audio.FrameSamples], start)
		all = append(all, ms...)
	}
	if len(all) < len(log)-2 {
		t.Fatalf("measurements %d want >= %d", len(all), len(log)-2)
	}
	// Zero ISD workload: every measurement should be ~0.
	for _, m := range all {
		if math.Abs(m.ISDSeconds) > 0.001 {
			t.Fatalf("ISD %g want ~0", m.ISDSeconds)
		}
	}
	// No duplicate detections.
	for i := 1; i < len(all); i++ {
		if math.Abs(all[i].DetectionTime-all[i-1].DetectionTime) < 0.5 {
			t.Fatalf("duplicate emission at %g and %g", all[i-1].DetectionTime, all[i].DetectionTime)
		}
	}
}

func TestStreamerRecoversShiftedStream(t *testing.T) {
	marked, log := makeMarked(t, 6, 0.5, 3)
	const isdMs = 87.0
	s := NewStreamer(Config{Seq: testSeq})
	for _, inj := range log {
		s.AddMarkerTime(float64(inj.StartSample) / audio.SampleRate)
	}
	// The recording's local clock runs ahead: sample i captured at
	// i/fs + isd, meaning the screen audio arrives isd late.
	var all []Measurement
	for i := 0; i+audio.FrameSamples <= marked.Len(); i += audio.FrameSamples {
		start := float64(i)/audio.SampleRate + isdMs/1000
		all = append(all, s.AddChat(marked.Samples[i:i+audio.FrameSamples], start)...)
	}
	if len(all) == 0 {
		t.Fatal("no measurements")
	}
	for _, m := range all {
		if math.Abs(m.ISDSeconds-isdMs/1000) > 0.001 {
			t.Fatalf("ISD %g want %g", m.ISDSeconds, isdMs/1000)
		}
	}
}

func TestStreamerNoMarkersNoMeasurements(t *testing.T) {
	clip := gamesynth.Generate(gamesynth.Catalog()[5], 5)
	s := NewStreamer(Config{Seq: testSeq})
	s.AddMarkerTime(1.0)
	var all []Measurement
	for i := 0; i+audio.FrameSamples <= clip.Len(); i += audio.FrameSamples {
		all = append(all, s.AddChat(clip.Samples[i:i+audio.FrameSamples], float64(i)/audio.SampleRate)...)
	}
	if len(all) != 0 {
		t.Fatalf("unmarked audio produced %d measurements", len(all))
	}
}

func TestStreamerReset(t *testing.T) {
	marked, log := makeMarked(t, 4, 0.5, 2)
	s := NewStreamer(Config{Seq: testSeq})
	for _, inj := range log {
		s.AddMarkerTime(float64(inj.StartSample) / audio.SampleRate)
	}
	for i := 0; i+audio.FrameSamples <= marked.Len()/2; i += audio.FrameSamples {
		s.AddChat(marked.Samples[i:i+audio.FrameSamples], float64(i)/audio.SampleRate)
	}
	s.Reset()
	if s.started || s.totalSamples != 0 || len(s.markerTimes) != 0 || len(s.held) != 0 {
		t.Fatal("reset should clear state")
	}
}

func TestStreamerBoundsMemory(t *testing.T) {
	marked, _ := makeMarked(t, 10, 0.5, 0)
	s := NewStreamer(Config{Seq: testSeq})
	// The incremental detector must never retain more audio or correlation
	// history than its constructor sized it for: about one coarse segment
	// of audio and one normalization window of squared lags.
	d := s.det
	maxRec, maxZ := cap(d.rec), cap(d.scan.z)
	for i := 0; i+audio.FrameSamples <= marked.Len(); i += audio.FrameSamples {
		s.AddChat(marked.Samples[i:i+audio.FrameSamples], float64(i)/audio.SampleRate)
		if len(d.rec) > maxRec {
			t.Fatalf("recording buffer grew to %d > %d", len(d.rec), maxRec)
		}
		if len(d.scan.z) > maxZ {
			t.Fatalf("correlation buffer grew to %d > %d", len(d.scan.z), maxZ)
		}
	}
}
