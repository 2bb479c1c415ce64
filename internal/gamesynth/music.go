package gamesynth

import (
	"math"
	"math/cmplx"
	"math/rand"

	"ekho/internal/audio"
)

// Music synthesizes game-soundtrack-like audio: a chord pad, a bass line
// and a plucked melody over a minor-pentatonic scale at a game-typical
// tempo. Harmonic content spans roughly 80 Hz - 8 kHz.
func Music(rng *rand.Rand, seconds float64) *audio.Buffer {
	const rate = audio.SampleRate
	n := int(seconds * rate)
	out := audio.NewBuffer(rate, n)
	root := 110 * math.Pow(2, float64(rng.Intn(12))/12) // A2 .. G#3
	scale := []float64{0, 3, 5, 7, 10, 12, 15, 17}      // minor pentatonic degrees
	bpm := 96 + rng.Float64()*40
	beat := 60 / bpm
	beatSamples := int(beat * rate)

	// Chord pad: root+third+fifth, new chord every 4 beats.
	chordRoots := []float64{0, 5, 7, 3}
	for b := 0; b*beatSamples < n; b += 4 {
		start := b * beatSamples
		length := min(4*beatSamples, n-start)
		deg := chordRoots[(b/4)%len(chordRoots)]
		base := root * math.Pow(2, deg/12)
		renderNote(out.Samples[start:start+length], rate, base, 0.10, 0.9, 5)
		renderNote(out.Samples[start:start+length], rate, base*math.Pow(2, 3.0/12), 0.07, 0.9, 4)
		renderNote(out.Samples[start:start+length], rate, base*math.Pow(2, 7.0/12), 0.07, 0.9, 4)
	}
	// Bass: root an octave down, each bar.
	for b := 0; b*beatSamples < n; b += 2 {
		start := b * beatSamples
		length := min(beatSamples, n-start)
		deg := chordRoots[(b/4)%len(chordRoots)]
		renderNote(out.Samples[start:start+length], rate, root/2*math.Pow(2, deg/12), 0.18, 0.5, 3)
	}
	// Melody: one plucked note per beat (with rests).
	for b := 0; b*beatSamples < n; b++ {
		if rng.Float64() < 0.25 {
			continue // rest
		}
		start := b * beatSamples
		length := min(beatSamples*3/4, n-start)
		deg := scale[rng.Intn(len(scale))]
		freq := 2 * root * math.Pow(2, deg/12)
		renderNote(out.Samples[start:start+length], rate, freq, 0.22, 0.25, 6)
	}
	return out.Normalize(0.7)
}

// renderNote adds a decaying harmonic tone into dst. decay is the fraction
// of the note length over which the envelope falls to ~5%. Harmonics
// above 16 kHz are left out.
func renderNote(dst []float64, rate int, freq, amp, sustain float64, harmonics int) {
	n := len(dst)
	if n == 0 || freq <= 0 || freq > 16000 {
		return
	}
	for freq*float64(harmonics) > 16000 {
		harmonics--
	}
	attack := min(rate*5/1000, n/4)
	decayRate := 3.0 / (sustain * float64(n))
	tone, turn := 0i, cmplx.Rect(1, 2*math.Pi*freq/float64(rate))
	env, decay := 0.0, math.Exp(-decayRate)
	for i := 0; i < n; i++ {
		if anchored(i) {
			env = math.Exp(-decayRate * float64(i))
			tone = cmplx.Rect(1, 2*math.Pi*freq*(float64(i)/float64(rate)))
		}
		e := env
		if attack > 0 && i < attack {
			e *= float64(i) / float64(attack)
		}
		dst[i] += amp * e * harmonicSum(imag(tone), real(tone), harmonics)
		env *= decay
		tone *= turn
	}
}
