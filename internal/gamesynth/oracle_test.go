package gamesynth

import (
	"math"
	"math/rand"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

// The direct formulas the synthesizer's recurrences replace: one math.Sin
// per harmonic and one math.Exp per envelope sample. The SFX transients
// (gunshot, impact, explosion) are one burst kernel with three settings.

func engineDirect(rng *rand.Rand, dst []float64, amp float64) {
	const rate = audio.SampleRate
	base := 55 + rng.Float64()*60
	mod := 0.2 + rng.Float64()*0.3
	phase := rng.Float64() * 2 * math.Pi
	for i := range dst {
		t := float64(i) / rate
		rpm := base * (1 + 0.15*math.Sin(2*math.Pi*mod*t+phase))
		var v float64
		for h := 1; h <= 6; h++ {
			v += math.Sin(2*math.Pi*rpm*float64(h)*t) / float64(h)
		}
		dst[i] += amp * v
	}
}

func gunshotDirect(rng *rand.Rand, dst []float64) {
	const rate = audio.SampleRate
	lp := dsp.NewLowPassBiquad(9000, rate, 0.707)
	for i := range dst {
		env := math.Exp(-float64(i) / (0.06 * rate))
		dst[i] += 0.9 * env * lp.Process(rng.NormFloat64())
		dst[i] += 0.4 * env * math.Sin(2*math.Pi*90*float64(i)/rate)
	}
}

func impactDirect(rng *rand.Rand, dst []float64) {
	const rate = audio.SampleRate
	center := 800 + rng.Float64()*3000
	bp := dsp.NewPeakingBiquad(center, rate, 4, 20)
	for i := range dst {
		env := math.Exp(-float64(i) / (0.025 * rate))
		dst[i] += 0.5 * env * bp.Process(rng.NormFloat64()) * 0.1
	}
}

func explosionDirect(rng *rand.Rand, dst []float64) {
	const rate = audio.SampleRate
	lp := dsp.NewLowPassBiquad(400, rate, 0.707)
	for i := range dst {
		env := math.Exp(-float64(i) / (0.35 * rate))
		dst[i] += 1.2 * env * lp.Process(rng.NormFloat64())
	}
}

func renderNoteDirect(dst []float64, rate int, freq, amp, sustain float64, harmonics int) {
	n := len(dst)
	if n == 0 || freq <= 0 {
		return
	}
	attack := rate * 5 / 1000
	if attack > n/4 {
		attack = n / 4
	}
	decayRate := 3.0 / (sustain * float64(n))
	for i := 0; i < n; i++ {
		t := float64(i) / float64(rate)
		var v float64
		for h := 1; h <= harmonics; h++ {
			f := freq * float64(h)
			if f > 16000 {
				break
			}
			v += math.Sin(2*math.Pi*f*t) / float64(h)
		}
		env := math.Exp(-decayRate * float64(i))
		if attack > 0 && i < attack {
			env *= float64(i) / float64(attack)
		}
		dst[i] += amp * env * v
	}
}

func synthFricativeDirect(rng *rand.Rand, dst []float64) {
	const rate = audio.SampleRate
	shaper := dsp.Chain{
		dsp.NewHighPassBiquad(2000, rate, 0.707),
		dsp.NewLowPassBiquad(6000, rate, 0.707),
		dsp.NewLowPassBiquad(6000, rate, 0.707),
	}
	n := len(dst)
	for i := 0; i < n; i++ {
		v := shaper.Process(rng.NormFloat64())
		env := math.Sin(math.Pi * float64(i) / float64(n))
		dst[i] = v * env * 0.12
	}
}

// randomNote draws a note from the stream (55 Hz to 14 kHz, so the
// 16 kHz harmonic cut is exercised too) and renders it with render.
func randomNote(render func([]float64, int, float64, float64, float64, int)) func(*rand.Rand, []float64) {
	return func(rng *rand.Rand, dst []float64) {
		render(dst, audio.SampleRate, 55*math.Pow(2, 8*rng.Float64()), 0.22, 0.25+0.65*rng.Float64(), 3+rng.Intn(4))
	}
}

// TestRecurrencesMatchDirectFormulas runs every rewritten kernel and its
// direct formula over a full clip's length on the same random stream,
// for every catalog seed: no sample may differ by more than 1e-9. A
// wrong sign in any recurrence fails the kernels that use it. Without
// the per-frame re-anchor the engine fails: its wobble's rounding is
// multiplied by t in the fundamental's phase. Under the race detector
// the k-th kernel runs the k-th catalog seed only, still at full length.
func TestRecurrencesMatchDirectFormulas(t *testing.T) {
	const n = int(ClipSeconds * audio.SampleRate)
	kernels := []struct {
		name           string
		kernel, direct func(*rand.Rand, []float64)
	}{
		{"engine", func(r *rand.Rand, d []float64) { engine(r, d, 0.06) }, func(r *rand.Rand, d []float64) { engineDirect(r, d, 0.06) }},
		{"gunshot", func(r *rand.Rand, d []float64) {
			burst(r, d, dsp.NewLowPassBiquad(9000, audio.SampleRate, 0.707), 0.9, 0.06, 0.4)
		}, gunshotDirect},
		{"impact", func(r *rand.Rand, d []float64) {
			burst(r, d, dsp.NewPeakingBiquad(800+r.Float64()*3000, audio.SampleRate, 4, 20), 0.05, 0.025, 0)
		}, impactDirect},
		{"explosion", func(r *rand.Rand, d []float64) {
			burst(r, d, dsp.NewLowPassBiquad(400, audio.SampleRate, 0.707), 1.2, 0.35, 0)
		}, explosionDirect},
		{"note", randomNote(renderNote), randomNote(renderNoteDirect)},
		{"fricative", synthFricative, synthFricativeDirect},
	}
	for i, k := range kernels {
		specs := Catalog()
		if raceEnabled {
			specs = specs[i : i+1]
		}
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			got, want := make([]float64, n), make([]float64, n)
			worst := 0.0
			for _, spec := range specs {
				clear(got)
				clear(want)
				k.kernel(rand.New(rand.NewSource(spec.Seed)), got)
				k.direct(rand.New(rand.NewSource(spec.Seed)), want)
				for i := range got {
					d := math.Abs(got[i] - want[i])
					worst = max(worst, d)
					if d > 1e-9 {
						t.Fatalf("seed %d sample %d: %g, direct formula %g (|Δ| = %.3g)", spec.Seed, i, got[i], want[i], d)
					}
				}
			}
			t.Logf("largest |Δ| over %d seeds × %d samples: %.3g", len(specs), n, worst)
		})
	}
}
