// Package estimator implements Ekho-Estimator (paper §4.2-§4.3): detection
// of PN markers in the chat-audio recording and conversion of detections
// into Inter-Stream Delay (ISD) measurements using local timestamps only.
//
// The detection pipeline follows the paper's equations exactly:
//
//	Eq. 3  Z[t]  = Σ_i x_rec[t+i]·w[i]          (cross-correlation)
//	Eq. 4  Z*[τ] = |Z[τ]| / sqrt(mean_S Z²)      (power normalization)
//	Eq. 5  R[t]  = max(Z*[t], β·R[t-1])          (envelope, β=0.99995)
//	Eq. 6  P[t]  = R[t] if local max and ≥ θ     (peak pick, θ=5)
//	Eq. 7  P*[t] = P[t] if dominant within ±δ and a companion peak exists
//	               one marker interval away (±δ)
//
// One deliberate deviation from the literal text of Eq. 7: the paper keeps
// a peak only if another peak follows L samples later, which would always
// discard the final marker of a recording and cap the measurement rate at
// (n-1)/n — yet the paper reports all 450 markers detected (§6.3). We
// therefore accept a companion peak either L samples later or L samples
// earlier, which preserves the false-positive suppression (two aligned
// peaks are still required) without the boundary loss.
package estimator

import (
	"math"
	"sort"

	"ekho/internal/audio"
	"ekho/internal/dsp"
	"ekho/internal/pn"
)

// The paper's fixed detection parameters.
const (
	// normWindow is S in Eq. 4, in samples (100 ms).
	normWindow = 4800
	// envelopeBeta is β, the envelope decay of Eq. 5.
	envelopeBeta = 0.99995
	// peakDelta is δ, the peak-dominance / companion-alignment slack of
	// Eq. 7 in samples (~2 ms; see Appendix A's (2δ+1)p² false-peak
	// model).
	peakDelta = 100
)

// Config carries the detection parameters the ablations vary; zero fields
// take the paper's defaults via (*Config).withDefaults.
type Config struct {
	// Seq is the PN sequence shared with the injector. Required.
	Seq *pn.Sequence
	// Theta is the minimum peak threshold in normalized-correlation units
	// (default 5, derived in Appendix A).
	Theta float64
	// IntervalSamples is the marker period L (default 48000 = 1 s).
	IntervalSamples int
	// MaxISDSeconds bounds |ISD| during matching (default 0.5 s, half the
	// marker interval; §4.3).
	MaxISDSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Theta == 0 {
		c.Theta = 5
	}
	if c.IntervalSamples == 0 {
		c.IntervalSamples = audio.SampleRate
	}
	if c.MaxISDSeconds == 0 {
		c.MaxISDSeconds = 0.5
	}
	return c
}

// Detection is one confirmed marker found in the recording.
type Detection struct {
	// Sample is the index in the recording where the marker starts.
	Sample int
	// Strength is the normalized correlation peak height (σ units).
	Strength float64
}

// DetectMarkers runs the full Eq. 3-7 pipeline over a recording and returns
// the confirmed marker detections in ascending sample order.
func DetectMarkers(rec []float64, cfg Config) []Detection {
	cfg = cfg.withDefaults()
	if cfg.Seq == nil || len(rec) < cfg.Seq.Len() {
		return nil
	}
	z := dsp.CrossCorrelate(rec, cfg.Seq.Samples) // Eq. 3
	zn := normalize(z, normWindow)                // Eq. 4
	env := envelope(zn, envelopeBeta)             // Eq. 5
	peaks := pickPeaks(env, cfg.Theta)            // Eq. 6
	return filterPeaks(peaks, env, cfg)           // Eq. 7
}

// normalize implements Eq. 4: divide each lag by the RMS of the correlation
// over the following S samples, and take absolute values. Prefix sums give
// O(n) total cost.
//
// One robustness addition over the paper's formula: the per-window RMS is
// floored at a small fraction of the whole recording's correlation RMS.
// Over digital silence (no microphone noise floor) the denominator would
// otherwise collapse and amplify numerical residue into spurious peaks.
func normalize(z []float64, s int) []float64 {
	n := len(z)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	prefix := make([]float64, n+1)
	for i, v := range z {
		prefix[i+1] = prefix[i] + v*v
	}
	// Global RMS sets the silence floor (-34 dB relative).
	floor := 0.02 * math.Sqrt(prefix[n]/float64(n))
	for t := 0; t < n; t++ {
		hi := t + s
		if hi > n {
			hi = n
		}
		w := float64(hi - t)
		if w <= 0 {
			out[t] = 0
			continue
		}
		den := math.Sqrt((prefix[hi] - prefix[t]) / w)
		if den < floor {
			den = floor
		}
		if den <= 0 {
			out[t] = 0
			continue
		}
		out[t] = math.Abs(z[t]) / den
	}
	return out
}

// envelope implements Eq. 5: a peak-hold envelope with exponential decay.
func envelope(zn []float64, beta float64) []float64 {
	out := make([]float64, len(zn))
	var r float64
	for i, v := range zn {
		r *= beta
		if v > r {
			r = v
		}
		out[i] = r
	}
	return out
}

// pickPeaks implements Eq. 6: indices where the envelope is a local maximum
// and at least theta.
func pickPeaks(env []float64, theta float64) []int {
	var peaks []int
	if len(env) > 1 && env[0] >= theta && env[1] < env[0] {
		peaks = append(peaks, 0)
	}
	for t := 1; t < len(env)-1; t++ {
		if env[t] >= theta && env[t-1] <= env[t] && env[t+1] < env[t] {
			peaks = append(peaks, t)
		}
	}
	return peaks
}

// filterPeaks implements Eq. 7: keep peaks that dominate their ±δ
// neighborhood in the envelope and have a companion peak one marker
// interval away (either direction, ±δ slack).
func filterPeaks(peaks []int, env []float64, cfg Config) []Detection {
	if len(peaks) == 0 {
		return nil
	}
	l, delta := cfg.IntervalSamples, peakDelta
	sorted := append([]int(nil), peaks...)
	sort.Ints(sorted)
	hasPeakNear := func(center int) bool {
		lo := sort.SearchInts(sorted, center-delta)
		return lo < len(sorted) && sorted[lo] <= center+delta
	}
	var out []Detection
	for _, t := range peaks {
		// Dominance: no larger envelope value within ±δ.
		dominant := true
		for j := max(0, t-delta); j <= min(len(env)-1, t+delta); j++ {
			if env[j] > env[t] {
				dominant = false
				break
			}
		}
		if !dominant {
			continue
		}
		if hasPeakNear(t+l) || hasPeakNear(t-l) {
			out = append(out, Detection{Sample: t, Strength: env[t]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sample < out[j].Sample })
	return dedupeDetections(out, delta)
}

// dedupeDetections collapses detections closer than delta samples, keeping
// the strongest (flat envelope tops can yield adjacent local maxima).
func dedupeDetections(d []Detection, delta int) []Detection {
	if len(d) == 0 {
		return d
	}
	out := []Detection{d[0]}
	for _, cur := range d[1:] {
		last := &out[len(out)-1]
		if cur.Sample-last.Sample <= delta {
			if cur.Strength > last.Strength {
				*last = cur
			}
			continue
		}
		out = append(out, cur)
	}
	return out
}

// Measurement is one ISD estimate produced by matching a detection against
// the accessory stream's hypothetical marker times (§4.3).
type Measurement struct {
	// ISDSeconds is the estimated inter-stream delay: positive when the
	// screen audio (as heard at the microphone) lags the accessory audio.
	ISDSeconds float64
	// DetectionTime is the local (headset clock) time the marker was heard.
	DetectionTime float64
	// MarkerTime is the local time the accessory stream carried the same
	// marker position.
	MarkerTime float64
	// Strength is the detection's correlation peak height.
	Strength float64
}

// MatchISD aligns detections with the accessory-stream marker times.
// recStartLocal is the local time of recording sample 0 (T_0^chat);
// markerLocalTimes are the local playback times of the accessory-stream
// frames that carry each marker start (T_j^accessory for logged frame IDs).
// A detection yields a measurement when the nearest marker time is within
// MaxISDSeconds (§4.3: the interval must exceed twice the maximum ISD, so
// the nearest candidate is unambiguous). At most one measurement is
// emitted per marker ("for each marker, we could potentially have one ISD
// measurement", §6.3) — when several detections claim the same marker
// (e.g. a strong room reflection alongside the direct path), only the
// strongest survives.
func MatchISD(dets []Detection, recStartLocal float64, sampleRate int, markerLocalTimes []float64, cfg Config) []Measurement {
	cfg = cfg.withDefaults()
	if len(markerLocalTimes) == 0 {
		return nil
	}
	times := append([]float64(nil), markerLocalTimes...)
	sort.Float64s(times)
	// Strongest measurement per marker time.
	byMarker := make(map[float64]Measurement)
	for _, d := range dets {
		td := recStartLocal + float64(d.Sample)/float64(sampleRate)
		// Nearest marker time.
		i := sort.SearchFloat64s(times, td)
		best := math.Inf(1)
		bestTime := 0.0
		for _, j := range []int{i - 1, i} {
			if j < 0 || j >= len(times) {
				continue
			}
			if diff := td - times[j]; math.Abs(diff) < math.Abs(best) {
				best = diff
				bestTime = times[j]
			}
		}
		if math.Abs(best) > cfg.MaxISDSeconds {
			continue
		}
		m := Measurement{
			ISDSeconds:    best,
			DetectionTime: td,
			MarkerTime:    bestTime,
			Strength:      d.Strength,
		}
		if prev, ok := byMarker[bestTime]; !ok || betterArrival(m, prev) {
			byMarker[bestTime] = m
		}
	}
	out := make([]Measurement, 0, len(byMarker))
	for _, m := range byMarker {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DetectionTime < out[j].DetectionTime })
	return out
}

// betterArrival decides between two detections claiming the same marker.
// A room reflection can be nearly as strong as the direct path, so pure
// strongest-peak selection occasionally locks onto an echo several ms
// late. As in acoustic ranging, prefer the EARLIEST detection that is at
// least a substantial fraction of the strongest — the direct path always
// arrives first.
func betterArrival(candidate, incumbent Measurement) bool {
	const fraction = 0.6
	switch {
	case candidate.Strength >= incumbent.Strength:
		// Stronger and earlier always wins; stronger but later only wins
		// if the incumbent is comparatively weak (likely noise).
		return candidate.DetectionTime <= incumbent.DetectionTime ||
			incumbent.Strength < fraction*candidate.Strength
	case candidate.Strength >= fraction*incumbent.Strength:
		// Weaker but strong enough: wins if it arrives earlier (direct
		// path preceding an echo).
		return candidate.DetectionTime < incumbent.DetectionTime
	default:
		return false
	}
}

// Estimate is the one-call convenience used by the offline experiments:
// detect markers in rec and match them against markerLocalTimes.
func Estimate(rec *audio.Buffer, recStartLocal float64, markerLocalTimes []float64, cfg Config) []Measurement {
	dets := DetectMarkers(rec.Samples, cfg)
	return MatchISD(dets, recStartLocal, rec.Rate, markerLocalTimes, cfg)
}

// Stages exposes every intermediate signal of the pipeline for a recording;
// used to regenerate Figure 5 and by diagnostic tooling.
type Stages struct {
	Raw        []float64   // Eq. 3 cross-correlation Z
	Normalized []float64   // Eq. 4 Z*
	Envelope   []float64   // Eq. 5 R
	Peaks      []int       // Eq. 6 candidate peak indices
	Confirmed  []Detection // Eq. 7 surviving detections
}

// ComputeStages runs the pipeline retaining intermediates.
func ComputeStages(rec []float64, cfg Config) Stages {
	cfg = cfg.withDefaults()
	if cfg.Seq == nil || len(rec) < cfg.Seq.Len() {
		return Stages{}
	}
	z := dsp.CrossCorrelate(rec, cfg.Seq.Samples)
	zn := normalize(z, normWindow)
	env := envelope(zn, envelopeBeta)
	peaks := pickPeaks(env, cfg.Theta)
	return Stages{
		Raw:        z,
		Normalized: zn,
		Envelope:   env,
		Peaks:      peaks,
		Confirmed:  filterPeaks(peaks, env, cfg),
	}
}
