package audio

import "math"

// Tone generates a pure sinusoid.
func Tone(rate int, freq, seconds, amplitude float64) *Buffer {
	n := int(math.Round(seconds * float64(rate)))
	b := NewBuffer(rate, n)
	for i := 0; i < n; i++ {
		b.Samples[i] = amplitude * math.Sin(2*math.Pi*freq*float64(i)/float64(rate))
	}
	return b
}
