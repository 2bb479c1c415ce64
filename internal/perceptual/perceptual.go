// Package perceptual provides psychoacoustic opinion-score models standing
// in for the paper's crowdsourced ITU-T P.808 Degradation Category Rating
// (DCR) studies (Figures 2 and 10). Human raters cannot be sourced in this
// reproduction, so each study is replaced by a deterministic annoyance
// model plus a simulated rater pool that adds response noise and yields
// mean scores with confidence intervals.
//
// The models are calibrated to the published curves' documented shape —
// they are models of the paper's findings, not new measurements:
//
//   - Echo (Fig. 2): a 10 ms echo is already perceptible and "slightly
//     distracting" in all categories; annoyance grows steadily with delay
//     for speech but plateaus for music and game SFX.
//   - Marker audibility (Fig. 10): markers with relative power C ≤ 1.0 are
//     statistically indistinguishable from the reference; C = 2.5 is
//     audible and slightly distracting; C = 5 is distracting.
package perceptual

import (
	"math"
	"math/rand"

	"ekho/internal/audio"
	"ekho/internal/dsp"
	"ekho/internal/gamesynth"
)

// DCR is the 5-point Degradation Category Rating scale (5 = degradation
// inaudible .. 1 = very distracting).
type DCR float64

// Label renders the nearest category name.
func (d DCR) Label() string {
	switch {
	case d >= 4.5:
		return "Inaudible"
	case d >= 3.5:
		return "Audible"
	case d >= 2.5:
		return "Slightly Distracting"
	case d >= 1.5:
		return "Distracting"
	default:
		return "Very Distracting"
	}
}

// EchoAnnoyance returns the model's mean DCR for a clip of the given
// category played with an echo of delayMs milliseconds.
//
// Shape calibration (Fig. 2): 0 ms → ~5 (reference); 10 ms → ~3.2
// ("slightly distracting"); speech keeps degrading toward ~1.5 at 300 ms;
// music and SFX flatten near 2.6-2.8 beyond ~40 ms.
func EchoAnnoyance(cat gamesynth.Category, delayMs float64) DCR {
	if delayMs <= 0 {
		return 4.85 // reference-level score (raters are imperfect)
	}
	// Common fast onset: half-saturation around 8 ms.
	onset := delayMs / (delayMs + 8)
	switch cat {
	case gamesynth.Speech_:
		// Continued degradation with delay (log term) toward the bottom
		// of the scale at 300 ms.
		drop := 2.8*onset + 0.72*math.Max(0, math.Log10(delayMs/10))
		return clampDCR(4.85 - drop)
	case gamesynth.Music_:
		drop := 2.6*onset + 0.08*math.Max(0, math.Log10(delayMs/10))
		return clampDCR(4.85 - drop)
	default: // game SFX
		drop := 2.7*onset + 0.06*math.Max(0, math.Log10(delayMs/10))
		return clampDCR(4.85 - drop)
	}
}

// MarkerAudibility returns the model's mean DCR for a clip with markers at
// relative power C. The model is driven by the marker-to-game loudness
// ratio: by construction (Eq. 2) the in-band ratio is exactly C, and
// auditory masking hides the marker until it approaches the masker level.
//
// Shape calibration (Fig. 10): C ≤ 1.0 ≈ reference; C = 2.5 ≈ 3 (slightly
// distracting); C = 5 ≈ 2.2.
func MarkerAudibility(c float64) DCR {
	if c <= 0 {
		return 4.85
	}
	// Masking threshold: markers below ~6 dB above the tracked game-band
	// level are inaudible. c is an amplitude ratio; audibility grows with
	// log of the excess over the masked threshold of ~1.2.
	excess := c / 1.2
	if excess <= 1 {
		return clampDCR(4.85 - 0.1*excess)
	}
	drop := 2.75 * math.Log2(excess) / math.Log2(5/1.2)
	return clampDCR(4.7 - drop)
}

// clampDCR bounds a score to the scale.
func clampDCR(v float64) DCR {
	if v > 5 {
		v = 5
	}
	if v < 1 {
		v = 1
	}
	return DCR(v)
}

// RaterPool simulates a P.808 respondent pool: each rating adds zero-mean
// response noise and quantizes to the 1-5 scale, mirroring the variance
// visible in the paper's confidence intervals.
type RaterPool struct {
	rng *rand.Rand
	// NoiseStd is the per-rating response noise (default 0.55, fitted to
	// the published CI widths with ~10 votes per clip).
	NoiseStd float64
}

// NewRaterPool creates a deterministic pool.
func NewRaterPool(seed int64) *RaterPool {
	return &RaterPool{rng: rand.New(rand.NewSource(seed)), NoiseStd: 0.55}
}

// Rate produces n individual ratings around the model mean.
func (p *RaterPool) Rate(mean DCR, n int) []int {
	out := make([]int, n)
	for i := range out {
		v := float64(mean) + p.rng.NormFloat64()*p.NoiseStd
		r := int(math.Round(v))
		if r < 1 {
			r = 1
		}
		if r > 5 {
			r = 5
		}
		out[i] = r
	}
	return out
}

// Score aggregates ratings into a mean opinion score and a 95% confidence
// half-width.
func Score(ratings []int) (mean, ci95 float64) {
	if len(ratings) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for _, r := range ratings {
		sum += float64(r)
	}
	mean = sum / float64(len(ratings))
	var ss float64
	for _, r := range ratings {
		d := float64(r) - mean
		ss += d * d
	}
	if len(ratings) > 1 {
		std := math.Sqrt(ss / float64(len(ratings)-1))
		ci95 = 1.96 * std / math.Sqrt(float64(len(ratings)))
	}
	return mean, ci95
}

// Ambient reference levels used in Figure 13's horizontal guide lines
// (anchors follow common sound-level charts).
const (
	QuietLibraryDBA       = 40.0
	AirConditionerDBA     = 50.0
	NormalConversationDBA = 60.0
)

// MarkerBandLoudness returns the dBA level of just the 6-12 kHz band of a
// buffer, the quantity the Figure 13 sound-level meter effectively reads
// for a muted screen playing only PN markers.
func MarkerBandLoudness(b *audio.Buffer) float64 {
	fir := dsp.BandPass(6000, 12000, float64(b.Rate), 255)
	filtered := audio.FromSamples(b.Rate, fir.Apply(b.Samples))
	return audio.DBA(filtered)
}
