package dsp

// CrossCorrelate computes the sliding-window cross-correlation used by the
// Ekho estimator (paper Eq. 3):
//
//	Z[t] = sum_{i=0}^{len(w)-1} x[t+i] * w[i],  t = 0 .. len(x)-len(w)
//
// i.e. the correlation of x against the template w at every lag where the
// template fully overlaps the signal. For long inputs the computation runs
// in the frequency domain (O(n log n)); short inputs use the direct form.
func CrossCorrelate(x, w []float64) []float64 {
	n, m := len(x), len(w)
	if n == 0 || m == 0 || m > n {
		return nil
	}
	outLen := n - m + 1
	if n*m <= 1<<16 {
		out := make([]float64, outLen)
		for t := 0; t < outLen; t++ {
			var s float64
			for i := 0; i < m; i++ {
				s += x[t+i] * w[i]
			}
			out[t] = s
		}
		return out
	}
	// Correlation == convolution with the reversed template.
	rev := make([]float64, m)
	for i := range w {
		rev[m-1-i] = w[i]
	}
	full := fftConvolve(RealPlanFor, x, rev, n+m-1)
	out := make([]float64, outLen)
	copy(out, full[m-1:])
	return out
}
