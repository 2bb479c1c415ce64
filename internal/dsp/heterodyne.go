package dsp

import "math"

// Quadrature heterodyne front-end for the band-decimated marker detector.
//
// Ekho's markers occupy 6-12 kHz only, so the detector can translate that
// band to complex baseband (multiply by e^{-jω0·n} with ω0 at the 9 kHz
// band center), low-pass it, and decimate — the correlation then runs at
// the band rate instead of the full 48 kHz. QuadOsc is the oscillator for
// that mix-down.
//
// At the rates Ekho uses the oscillator is exact: 9000/48000 = 3/16, so
// e^{-jω0·n} repeats every 16 samples and one precomputed period serves
// the whole stream with zero phase drift — no recurrence error accumulates
// no matter how many hours of audio pass through.

// QuadOsc generates e^{-jω·n} for ω = 2π·freq/rate by table lookup over
// one exact period (rate/gcd(freq,rate) entries), indexed by absolute
// sample position, so mix-down output never depends on chunk boundaries.
type QuadOsc struct {
	tab []complex128 // tab[k] = e^{-jω·k} over one exact period
}

// NewQuadOsc returns an oscillator at freq Hz for a rate Hz stream. Both
// must be positive integers (true for every rate in this codebase); the
// period rate/gcd(freq,rate) is exact.
func NewQuadOsc(freq, rate int) *QuadOsc {
	if freq <= 0 || rate <= 0 {
		panic("dsp: QuadOsc needs positive integer freq and rate")
	}
	g := gcd(freq, rate)
	period := rate / g
	o := &QuadOsc{tab: make([]complex128, period)}
	for k := range o.tab {
		// Reduce the angle mod 2π in exact integer arithmetic before
		// evaluating, so every table entry has full float64 precision.
		num := (freq / g * k) % period
		s, c := math.Sincos(-2 * math.Pi * float64(num) / float64(period))
		o.tab[k] = complex(c, s)
	}
	return o
}

// Period returns the oscillator's exact period in samples.
func (o *QuadOsc) Period() int { return len(o.tab) }

// Factor returns e^{-jω·k} for an absolute sample index k ≥ 0.
func (o *QuadOsc) Factor(k int) complex128 { return o.tab[k%len(o.tab)] }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
