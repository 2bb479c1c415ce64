package dsp

import (
	"math/rand"
	"testing"
)

// benchSignal returns a deterministic pseudo-random signal.
func benchSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkFFTPow2 measures the raw legacy radix-2 complex transform at
// 131072 points.
func BenchmarkFFTPow2(b *testing.B) {
	const n = 131072
	x := make([]complex128, n)
	src := benchSignal(n, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			x[j] = complex(v, 0)
		}
		fftPow2(x, false)
	}
}

// BenchmarkBandPower measures the per-frame marker-band amplitude probe
// (Eq. 2) that the injector runs on every 20 ms tick of every session.
func BenchmarkBandPower(b *testing.B) {
	x := benchSignal(960, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BandPower(x, 48000, 6000, 12000)
	}
}
