// Package analysis implements the reliability model of the paper's
// Appendix A — analytic false-positive and false-peak rates for the
// Ekho-Estimator thresholds — plus the shared statistics helpers (CDFs,
// histograms, percentiles) that the experiment harness uses to print the
// evaluation's tables and figure series.
//
// Appendix A's argument: off-peak, the normalized cross-correlation Z* is
// distributed as |N(0,1)|. A threshold θ therefore admits a per-sample
// false-positive probability p = 2(1−Φ(θ)). The back-to-back filter
// (Eq. 7) requires a second aligned peak within a ±δ window one marker
// interval away, so a false *pair* needs two independent events, giving a
// per-sample false-peak probability of roughly (2δ+1)·p².
package analysis

import (
	"math"
	"sort"
)

// StdNormalCDF is Φ, the standard normal cumulative distribution.
func StdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// FalsePositiveRate returns the per-sample probability that |N(0,1)|
// exceeds theta: p = 2(1−Φ(θ)). For θ = 5 this is ≈ 5.7e-7 per sample —
// the paper's "2E-4 %" (i.e. 2e-6 in fractional terms, of the same order).
func FalsePositiveRate(theta float64) float64 {
	return 2 * (1 - StdNormalCDF(theta))
}

// FalsePeakRate returns the per-sample probability of a spurious *pair*
// surviving the Eq. 7 filter: (2δ+1)·p² with p = FalsePositiveRate(θ).
func FalsePeakRate(theta float64, delta int) float64 {
	p := FalsePositiveRate(theta)
	return float64(2*delta+1) * p * p
}

// MeanTimeBetweenFalsePositives converts a per-sample rate to seconds at
// the given sample rate. Returns +Inf for a zero rate.
func MeanTimeBetweenFalsePositives(ratePerSample float64, sampleRate int) float64 {
	if ratePerSample <= 0 {
		return math.Inf(1)
	}
	return 1 / (ratePerSample * float64(sampleRate))
}

// CDF computes the empirical distribution of xs at the given probe points:
// fraction of values <= probe.
func CDF(xs []float64, probes []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(probes))
	for i, p := range probes {
		out[i] = float64(sort.SearchFloat64s(s, math.Nextafter(p, math.Inf(1)))) / float64(len(s))
	}
	if len(s) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
	}
	return out
}

// Fraction returns the share of values for which pred holds.
func Fraction(xs []float64, pred func(float64) bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if pred(x) {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Percentile returns the p-quantile (0 <= p <= 1) by linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
