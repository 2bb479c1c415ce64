package dsp

import "math"

// Biquad is a second-order IIR section in direct form II transposed.
// Cascades of biquads implement the A-weighting meter and the microphone
// coloration fallbacks.
type Biquad struct {
	B0, B1, B2 float64 // numerator
	A1, A2     float64 // denominator (a0 normalized to 1)
	z1, z2     float64 // state
}

// Process filters a single sample.
func (q *Biquad) Process(x float64) float64 {
	y := q.B0*x + q.z1
	q.z1 = q.B1*x - q.A1*y + q.z2
	q.z2 = q.B2*x - q.A2*y
	return y
}

// NewLowPassBiquad designs a Butterworth-style low-pass biquad (RBJ cookbook
// formulation) with the given cutoff and Q.
func NewLowPassBiquad(cutoff, sampleRate, qFactor float64) *Biquad {
	w0 := 2 * math.Pi * cutoff / sampleRate
	cw, sw := math.Cos(w0), math.Sin(w0)
	alpha := sw / (2 * qFactor)
	b0 := (1 - cw) / 2
	b1 := 1 - cw
	b2 := (1 - cw) / 2
	a0 := 1 + alpha
	a1 := -2 * cw
	a2 := 1 - alpha
	return &Biquad{B0: b0 / a0, B1: b1 / a0, B2: b2 / a0, A1: a1 / a0, A2: a2 / a0}
}

// NewHighPassBiquad designs a high-pass biquad (RBJ cookbook).
func NewHighPassBiquad(cutoff, sampleRate, qFactor float64) *Biquad {
	w0 := 2 * math.Pi * cutoff / sampleRate
	cw, sw := math.Cos(w0), math.Sin(w0)
	alpha := sw / (2 * qFactor)
	b0 := (1 + cw) / 2
	b1 := -(1 + cw)
	b2 := (1 + cw) / 2
	a0 := 1 + alpha
	a1 := -2 * cw
	a2 := 1 - alpha
	return &Biquad{B0: b0 / a0, B1: b1 / a0, B2: b2 / a0, A1: a1 / a0, A2: a2 / a0}
}

// NewPeakingBiquad designs a peaking EQ biquad boosting (or cutting, for
// negative gainDB) around center Hz with the given Q. The microphone models
// compose these to reproduce the peaks and troughs of Figure 17.
func NewPeakingBiquad(center, sampleRate, qFactor, gainDB float64) *Biquad {
	a := math.Pow(10, gainDB/40)
	w0 := 2 * math.Pi * center / sampleRate
	cw, sw := math.Cos(w0), math.Sin(w0)
	alpha := sw / (2 * qFactor)
	b0 := 1 + alpha*a
	b1 := -2 * cw
	b2 := 1 - alpha*a
	a0 := 1 + alpha/a
	a1 := -2 * cw
	a2 := 1 - alpha/a
	return &Biquad{B0: b0 / a0, B1: b1 / a0, B2: b2 / a0, A1: a1 / a0, A2: a2 / a0}
}

// Chain applies a sequence of biquads one after another.
type Chain []*Biquad

// Process runs a sample through every section in order.
func (c Chain) Process(x float64) float64 {
	for _, q := range c {
		x = q.Process(x)
	}
	return x
}

// Apply filters the whole slice through the cascade.
func (c Chain) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = c.Process(v)
	}
	return out
}

// ApplyInPlace filters the slice through the cascade in place (no
// allocation), for callers that own the buffer.
func (c Chain) ApplyInPlace(x []float64) {
	for i, v := range x {
		x[i] = c.Process(v)
	}
}
