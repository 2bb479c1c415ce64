// Package gamesynth synthesizes the audio workloads of the paper's
// evaluation: a 30-clip corpus of game audio in three stimulus categories
// (speech, music, game sound effects) mirroring Table 2, plus the background
// voice chatter ("babble") used in the GCC-PHAT comparison (§6.4).
//
// The paper sampled commercial games; that audio is proprietary, so this
// package generates synthetic equivalents with the properties that matter
// to Ekho: realistic spectral occupancy (speech formants below ~5 kHz,
// music harmonics, broadband SFX transients) and strong amplitude dynamics
// on the tens-of-milliseconds timescale (which drive the Eq. 2 amplitude
// tracker). Every generator is deterministic given its seed.
//
// Per-sample sines and exponential decays run as recurrences (rotation
// steps, the Chebyshev step for harmonics, geometric decay steps), each
// re-anchored from its direct formula once per 960-sample frame: every
// sample stays within 1e-9 of the direct formula.
package gamesynth

import (
	"math"
	"math/cmplx"
	"math/rand"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

// Speech synthesizes seconds of speech-like audio: a glottal pulse train
// shaped by slowly wandering vowel formants, interleaved with unvoiced
// fricative segments and phrase pauses. Spectral energy is concentrated
// below 5 kHz like real speech.
func Speech(rng *rand.Rand, seconds float64) *audio.Buffer {
	const rate = audio.SampleRate
	n := int(seconds * rate)
	out := audio.NewBuffer(rate, n)
	pitch := 90 + rng.Float64()*80 // speaker fundamental 90-170 Hz
	pos := 0
	for pos < n {
		// Phrase of 1-3 s followed by a 0.2-0.6 s pause.
		phraseLen := min(int((1+2*rng.Float64())*rate), n-pos)
		synthPhrase(rng, out.Samples[pos:pos+phraseLen], pitch)
		pos += phraseLen + int((0.2+0.4*rng.Float64())*rate)
	}
	return out.Normalize(0.7)
}

// vowelFormants holds (F1, F2, F3) center frequencies for a handful of
// vowels; the synthesizer hops between them per syllable.
var vowelFormants = [][3]float64{
	{730, 1090, 2440}, // /a/
	{270, 2290, 3010}, // /i/
	{300, 870, 2240},  // /u/
	{530, 1840, 2480}, // /e/
	{570, 840, 2410},  // /o/
	{660, 1720, 2410}, // /ae/
}

func synthPhrase(rng *rand.Rand, dst []float64, pitch float64) {
	const rate = audio.SampleRate
	n := len(dst)
	pos := 0
	for pos < n {
		sylLen := min(int((0.12+0.15*rng.Float64())*rate), n-pos)
		if sylLen <= 0 {
			break
		}
		seg := dst[pos : pos+sylLen]
		if rng.Float64() < 0.75 {
			synthVowel(rng, seg, pitch*(0.9+0.2*rng.Float64()))
		} else {
			synthFricative(rng, seg)
		}
		pos += sylLen
	}
}

// synthVowel renders a voiced segment: an impulse-ish glottal source
// filtered by three formant resonators, with an attack/decay envelope.
func synthVowel(rng *rand.Rand, dst []float64, pitch float64) {
	const rate = audio.SampleRate
	v := vowelFormants[rng.Intn(len(vowelFormants))]
	resonators := dsp.Chain{
		dsp.NewPeakingBiquad(v[0], rate, 5, 18),
		dsp.NewPeakingBiquad(v[1], rate, 7, 14),
		dsp.NewPeakingBiquad(v[2], rate, 8, 8),
		dsp.NewLowPassBiquad(4500, rate, 0.707),
		dsp.NewLowPassBiquad(5000, rate, 0.707),
	}
	period := float64(rate) / pitch
	next := 0.0
	n := len(dst)
	src := make([]float64, n)
	for i := 0; i < n; i++ {
		if float64(i) >= next {
			src[i] = 1
			// slight jitter for naturalness
			next += period * (0.98 + 0.04*rng.Float64())
		}
	}
	y := resonators.Apply(src)
	// Envelope: 15 ms attack, exponential-ish release.
	attack := rate * 15 / 1000
	for i := range y {
		env := 1.0
		if i < attack {
			env = float64(i) / float64(attack)
		}
		tail := n - i
		if tail < attack {
			env *= float64(tail) / float64(attack)
		}
		dst[i] = y[i] * env * 0.25
	}
}

// synthFricative renders an unvoiced segment: shaped noise band-passed
// in the 2-6 kHz sibilance region.
func synthFricative(rng *rand.Rand, dst []float64) {
	const rate = audio.SampleRate
	shaper := dsp.Chain{
		dsp.NewHighPassBiquad(2000, rate, 0.707),
		dsp.NewLowPassBiquad(6000, rate, 0.707),
		dsp.NewLowPassBiquad(6000, rate, 0.707),
	}
	n := len(dst)
	arc, turn := 0i, cmplx.Rect(1, math.Pi/float64(n)) // a half-sine envelope
	for i := range dst {
		v := shaper.Process(rng.NormFloat64())
		if anchored(i) {
			arc = cmplx.Rect(1, math.Pi*float64(i)/float64(n))
		}
		dst[i] = v * imag(arc) * 0.12
		arc *= turn
	}
}

// Babble mixes several independent synthetic voices into the diffuse
// background chatter used for the Low/Med/Loud Chat conditions. More
// voices make a denser, more speech-shaped masker.
func Babble(rng *rand.Rand, seconds float64, voices int) *audio.Buffer {
	voices = max(voices, 1)
	bufs := make([]*audio.Buffer, voices)
	for i := range bufs {
		sub := rand.New(rand.NewSource(rng.Int63()))
		bufs[i] = Speech(sub, seconds).Gain(1 / math.Sqrt(float64(voices)))
	}
	return audio.Mix(bufs...).Normalize(0.7)
}
