package gamesynth

import (
	"math"
	"math/cmplx"
	"math/rand"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

// SFX synthesizes game sound effects: sparse broadband transients
// (gunshots, impacts), sustained machinery (engines), and occasional
// explosions. These are the "sudden sharp sounds" for which echo
// perception is most acute (§2).
func SFX(rng *rand.Rand, seconds float64) *audio.Buffer {
	const rate = audio.SampleRate
	n := int(seconds * rate)
	out := audio.NewBuffer(rate, n)

	// A sustained engine bed under everything, at low level.
	engine(rng, out.Samples, 0.06)

	// Transient events at 1-4 per second.
	t := 0.0
	for {
		t += 0.25 + rng.ExpFloat64()*0.5
		pos := int(t * rate)
		if pos >= n {
			break
		}
		switch rng.Intn(4) {
		case 0, 1: // gunshot: a ~60 ms broadband decay over a 90 Hz thump
			burst(rng, out.Samples[pos:min(pos+rate/4, n)], dsp.NewLowPassBiquad(9000, rate, 0.707), 0.9, 0.06, 0.4)
		case 2: // impact: a band-passed click (metal/footstep-like)
			burst(rng, out.Samples[pos:min(pos+rate/6, n)], dsp.NewPeakingBiquad(800+rng.Float64()*3000, rate, 4, 20), 0.05, 0.025, 0)
		case 3: // explosion: a long low-passed rumble
			burst(rng, out.Samples[pos:min(pos+rate, n)], dsp.NewLowPassBiquad(400, rate, 0.707), 1.2, 0.35, 0)
		}
	}
	return out.Normalize(0.75)
}

// burst adds noise shaped by f, gain loud, and a 90 Hz thump, thump
// loud, both under an exponential decay of time constant tau seconds.
func burst(rng *rand.Rand, dst []float64, f *dsp.Biquad, gain, tau, thump float64) {
	const rate = audio.SampleRate
	tone, turn := 0i, cmplx.Rect(1, 2*math.Pi*90/rate)
	env, decay := 0.0, math.Exp(-1/(tau*rate))
	for i := range dst {
		if anchored(i) {
			env = math.Exp(-float64(i) / (tau * rate))
			tone = cmplx.Rect(1, 2*math.Pi*90*float64(i)/rate)
		}
		dst[i] += gain * env * f.Process(rng.NormFloat64())
		dst[i] += thump * env * imag(tone)
		env *= decay
		tone *= turn
	}
}

// engine: sum of low harmonics with random amplitude modulation,
// approximating car/machinery beds in racing games.
func engine(rng *rand.Rand, dst []float64, amp float64) {
	const rate = audio.SampleRate
	base := 55 + rng.Float64()*60
	mod := 0.2 + rng.Float64()*0.3
	phase := rng.Float64() * 2 * math.Pi
	wobble, turn := 0i, cmplx.Rect(1, 2*math.Pi*mod/rate)
	for i := range dst {
		t := float64(i) / rate
		if anchored(i) {
			wobble = cmplx.Rect(1, 2*math.Pi*mod*t+phase)
		}
		rpm := base * (1 + 0.15*imag(wobble))
		s, c := math.Sincos(2 * math.Pi * rpm * t)
		dst[i] += amp * harmonicSum(s, c, 6)
		wobble *= turn
	}
}

// anchored reports whether sample i starts a frame, where every
// recurrence restarts from its direct formula (see the package doc). A
// sine at a fixed frequency runs as a unit phasor, e^{jφ}, turned by one
// complex multiplication per sample.
func anchored(i int) bool { return i%audio.FrameSamples == 0 }

// harmonicSum returns Σ_{h=1..n} sin(hθ)/h from s = sin θ and c = cos θ
// by the Chebyshev recurrence sin(hθ) = 2cos θ·sin((h−1)θ) − sin((h−2)θ).
func harmonicSum(s, c float64, n int) float64 {
	v, prev, cur := s, 0.0, s
	for h := 2; h <= n; h++ {
		prev, cur = cur, 2*c*cur-prev
		v += cur / float64(h)
	}
	return v
}
