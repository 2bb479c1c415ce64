// Package audio provides the PCM audio primitives shared by all of Ekho:
// mono float64 sample buffers, 20 ms framing at 48 kHz, WAV import/export,
// level measurement (dBFS and A-weighted dBA), tone generation and mixing.
//
// Conventions: samples are float64 in [-1, 1]; the canonical sample rate is
// 48 kHz; the canonical frame is 20 ms (960 samples), matching the OPUS
// packetization used by the paper's implementation.
package audio

import (
	"fmt"
	"math"
)

// Canonical stream constants (paper §4.2: 48 kHz, 20 ms packets, 1 s markers).
const (
	SampleRate   = 48000 // samples per second
	FrameSamples = 960   // 20 ms at 48 kHz (T in Eq. 2)
	MarkerLength = 48000 // L: 1 s PN marker
)

// Buffer is a mono PCM signal at a fixed sample rate.
type Buffer struct {
	Rate    int       // sample rate in Hz
	Samples []float64 // PCM samples, nominally in [-1, 1]
}

// NewBuffer allocates a zeroed buffer of n samples at the given rate.
func NewBuffer(rate, n int) *Buffer {
	return &Buffer{Rate: rate, Samples: make([]float64, n)}
}

// FromSamples wraps an existing slice (no copy).
func FromSamples(rate int, s []float64) *Buffer {
	return &Buffer{Rate: rate, Samples: s}
}

// Len returns the number of samples.
func (b *Buffer) Len() int { return len(b.Samples) }

// Duration returns the buffer length in seconds.
func (b *Buffer) Duration() float64 {
	if b.Rate == 0 {
		return 0
	}
	return float64(len(b.Samples)) / float64(b.Rate)
}

// Clone returns a deep copy.
func (b *Buffer) Clone() *Buffer {
	s := make([]float64, len(b.Samples))
	copy(s, b.Samples)
	return &Buffer{Rate: b.Rate, Samples: s}
}

// Slice returns a view of samples [from, to) sharing underlying storage.
// Bounds are clamped to the buffer.
func (b *Buffer) Slice(from, to int) *Buffer {
	if from < 0 {
		from = 0
	}
	if to > len(b.Samples) {
		to = len(b.Samples)
	}
	if from > to {
		from = to
	}
	return &Buffer{Rate: b.Rate, Samples: b.Samples[from:to]}
}

// Frames splits the buffer into consecutive frames of frameLen samples.
// A trailing partial frame is zero-padded into a full one so that stream
// pipelines always see uniform packets.
func (b *Buffer) Frames(frameLen int) [][]float64 {
	if frameLen <= 0 {
		return nil
	}
	n := len(b.Samples)
	count := (n + frameLen - 1) / frameLen
	out := make([][]float64, count)
	for i := 0; i < count; i++ {
		start := i * frameLen
		end := start + frameLen
		if end <= n {
			out[i] = b.Samples[start:end]
			continue
		}
		padded := make([]float64, frameLen)
		copy(padded, b.Samples[start:])
		out[i] = padded
	}
	return out
}

// AppendFrame appends a frame's samples.
func (b *Buffer) AppendFrame(frame []float64) {
	b.Samples = append(b.Samples, frame...)
}

// Gain scales every sample by g in place and returns the buffer.
func (b *Buffer) Gain(g float64) *Buffer {
	for i := range b.Samples {
		b.Samples[i] *= g
	}
	return b
}

// MixInto adds src (scaled by gain) into b starting at the given sample
// offset. Out-of-range parts of src are ignored; negative offsets shift src
// earlier (dropping its head).
func (b *Buffer) MixInto(src []float64, offset int, gain float64) {
	for i, v := range src {
		j := offset + i
		if j < 0 {
			continue
		}
		if j >= len(b.Samples) {
			break
		}
		b.Samples[j] += v * gain
	}
}

// RMS returns the root-mean-square level.
func (b *Buffer) RMS() float64 {
	if len(b.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range b.Samples {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(b.Samples)))
}

// PeakAbs returns the maximum absolute sample value.
func (b *Buffer) PeakAbs() float64 {
	var p float64
	for _, v := range b.Samples {
		if a := math.Abs(v); a > p {
			p = a
		}
	}
	return p
}

// DBFS returns the RMS level in dB relative to full scale (a full-scale
// sine is about -3 dBFS RMS). Returns -inf for silence.
func (b *Buffer) DBFS() float64 {
	r := b.RMS()
	if r <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(r)
}

// String summarizes the buffer for debugging.
func (b *Buffer) String() string {
	return fmt.Sprintf("audio.Buffer{%d Hz, %d samples, %.2fs, %.1f dBFS}",
		b.Rate, len(b.Samples), b.Duration(), b.DBFS())
}

// Mix sums any number of equal-rate buffers into a new buffer whose length
// is the longest input.
func Mix(bufs ...*Buffer) *Buffer {
	if len(bufs) == 0 {
		return NewBuffer(SampleRate, 0)
	}
	rate := bufs[0].Rate
	maxLen := 0
	for _, b := range bufs {
		if b.Rate != rate {
			panic(fmt.Sprintf("audio: Mix rate mismatch %d vs %d", b.Rate, rate))
		}
		if b.Len() > maxLen {
			maxLen = b.Len()
		}
	}
	out := NewBuffer(rate, maxLen)
	for _, b := range bufs {
		for i, v := range b.Samples {
			out.Samples[i] += v
		}
	}
	return out
}

// Normalize scales the buffer so its peak is the given absolute level
// (e.g. 0.9). Silent buffers are returned unchanged.
func (b *Buffer) Normalize(peak float64) *Buffer {
	p := b.PeakAbs()
	if p <= 0 {
		return b
	}
	return b.Gain(peak / p)
}
