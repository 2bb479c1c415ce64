package compensator

import (
	"math"
	"testing"

	"ekho/internal/audio"
)

func toneFrames(freq float64, frames int) [][]float64 {
	out := make([][]float64, frames)
	for f := range out {
		fr := make([]float64, audio.FrameSamples)
		for i := range fr {
			t := float64(f*audio.FrameSamples+i) / audio.SampleRate
			fr[i] = 0.5 * math.Sin(2*math.Pi*freq*t)
		}
		out[f] = fr
	}
	return out
}

func TestInterpolatorContinuesPeriodicSignal(t *testing.T) {
	ip := NewInterpolator()
	for _, fr := range toneFrames(200, 4) { // 200 Hz → 240-sample period
		ip.Observe(fr)
	}
	syn := ip.Synthesize(audio.FrameSamples)
	// Synthesized audio must carry energy comparable to the source (the
	// decay makes it slightly quieter) and have the same dominant period.
	var p float64
	for _, v := range syn {
		p += v * v
	}
	p /= float64(len(syn))
	if p < 0.01 {
		t.Fatalf("synthesized power %g too low", p)
	}
	period := dominantPeriod(syn)
	if period < 200 || period > 280 {
		t.Fatalf("synthesized period %d, want ~240", period)
	}
}

func TestInterpolatorSilenceWithoutContext(t *testing.T) {
	ip := NewInterpolator()
	syn := ip.Synthesize(audio.FrameSamples)
	for _, v := range syn {
		if v != 0 {
			t.Fatal("no context should synthesize silence")
		}
	}
	// Silence context also yields silence (period 0).
	ip.Observe(make([]float64, 4*audio.FrameSamples))
	syn = ip.Synthesize(audio.FrameSamples)
	for _, v := range syn {
		if v != 0 {
			t.Fatal("silent context should synthesize silence")
		}
	}
}

func TestInterpolatorDecays(t *testing.T) {
	ip := NewInterpolator()
	for _, fr := range toneFrames(300, 4) {
		ip.Observe(fr)
	}
	long := ip.Synthesize(4 * audio.FrameSamples)
	first := rms(long[:audio.FrameSamples])
	last := rms(long[3*audio.FrameSamples:])
	if last >= first {
		t.Fatalf("sustained synthesis should decay: %g then %g", first, last)
	}
}

func TestDominantPeriodRange(t *testing.T) {
	// Pure 100 Hz → period 480.
	fr := toneFrames(100, 4)
	var h []float64
	for _, f := range fr {
		h = append(h, f...)
	}
	p := dominantPeriod(h)
	if p < 440 || p > 520 {
		t.Fatalf("period %d want ~480", p)
	}
	if dominantPeriod(make([]float64, 100)) != 0 {
		t.Fatal("silence period should be 0")
	}
}
