// Package gccphat implements the Generalized Cross-Correlation PHAse
// Transform baseline that Ekho is compared against in §6.4 (paper Eq. 8):
//
//	R(τ) = ∫ X(ω)·conj(X_rec(ω)) / |X(ω)·conj(X_rec(ω))| · e^{jωτ} dω
//	ISD  = argmax_τ R(τ)
//
// GCC-PHAT whitens the cross-spectrum so every frequency contributes only
// phase, which sharpens correlation peaks for signals without good
// autocorrelation — but it has no embedded marker, so background chatter
// and compression noise corrupt the phase and detections collapse (the
// effect Figure 12 quantifies).
//
// As in the paper, the implementation always produces an estimate and
// flags it with the 300 ms plausibility rule (Measurement.Plausible);
// callers treat implausible estimates as missed detections.
package gccphat

import (
	"math"
	"math/cmplx"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

// MaxPlausibleISDSeconds is the paper's outlier rule: measurements beyond
// 300 ms are flagged as erroneous and treated as missed detections.
const MaxPlausibleISDSeconds = 0.3

// Measurement is one windowed GCC-PHAT estimate.
type Measurement struct {
	// ISDSeconds is the estimated delay for this window.
	ISDSeconds float64
	// WindowStart is the window's start time in the stream (seconds).
	WindowStart float64
	// Plausible reports whether the estimate passed the 300 ms rule.
	Plausible bool
}

// EstimateSegments produces one estimate per second the way the paper's
// comparison does: each one-second segment of the reference (accessory)
// audio is PHAT-correlated against the ENTIRE recording, and the implied
// delay is the argmax lag. The lag space spans the whole recording, so a
// segment whose content is quiet, repetitive or masked by chatter yields a
// near-uniform garbage lag that the 300 ms plausibility rule rejects —
// which is how GCC-PHAT's measurement rate collapses in Figure 12 while
// distinctive segments still measure accurately.
func EstimateSegments(ref, rec *audio.Buffer, segSeconds float64) []Measurement {
	seg := int(segSeconds * float64(ref.Rate))
	if seg <= 0 || rec.Len() == 0 {
		return nil
	}
	size := dsp.NextPow2(rec.Len() + seg)
	frec := make([]complex128, size)
	for i, v := range rec.Samples {
		frec[i] = complex(v, 0)
	}
	dsp.FFT(frec)
	var out []Measurement
	for start := 0; start+seg <= ref.Len(); start += seg {
		fseg := make([]complex128, size)
		for i, v := range ref.Samples[start : start+seg] {
			fseg[i] = complex(v, 0)
		}
		dsp.FFT(fseg)
		for i := range fseg {
			c := frec[i] * cmplx.Conj(fseg[i])
			mag := cmplx.Abs(c)
			if mag > 1e-12 {
				fseg[i] = c / complex(mag, 0)
			} else {
				fseg[i] = 0
			}
		}
		r := dsp.IFFT(fseg)
		// The segment starting at `start` appears in the recording at
		// position start+delay; correlation peak index == that position.
		bestVal := math.Inf(-1)
		bestPos := 0
		for i := 0; i < rec.Len(); i++ {
			if v := real(r[i]); v > bestVal {
				bestVal = v
				bestPos = i
			}
		}
		delay := float64(bestPos-start) / float64(ref.Rate)
		out = append(out, Measurement{
			ISDSeconds:  delay,
			WindowStart: float64(start) / float64(ref.Rate),
			Plausible:   math.Abs(delay) <= MaxPlausibleISDSeconds,
		})
	}
	return out
}
