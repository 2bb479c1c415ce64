package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// naiveDFT is the O(n^2) reference used to validate the FFT kernels.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			phase := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, phase))
		}
		out[k] = sum
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFTPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, rng)
		want := naiveDFT(x, false)
		got := make([]complex128, n)
		copy(got, x)
		got = FFT(got)
		for i := range want {
			if cmplx.Abs(want[i]-got[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTMatchesNaiveDFTNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 12, 17, 100, 960} {
		x := randComplex(n, rng)
		want := naiveDFT(x, false)
		got := FFT(append([]complex128(nil), x...))
		for i := range want {
			if cmplx.Abs(want[i]-got[i]) > 1e-6*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 8, 48, 64, 100, 1024} {
		x := randComplex(n, rng)
		y := FFT(append([]complex128(nil), x...))
		back := IFFT(append([]complex128(nil), y...))
		for i := range x {
			if cmplx.Abs(x[i]-back[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (sizeSel%9 + 1) // 2..512
		r := rand.New(rand.NewSource(seed))
		x := randComplex(n, r)
		y := FFT(append([]complex128(nil), x...))
		back := IFFT(y)
		for i := range x {
			if cmplx.Abs(x[i]-back[i]) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		a := randComplex(n, r)
		b := randComplex(n, r)
		alpha := complex(r.NormFloat64(), 0)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa := FFT(append([]complex128(nil), a...))
		fb := FFT(append([]complex128(nil), b...))
		fsum := FFT(sum)
		for i := range fsum {
			want := fa[i] + alpha*fb[i]
			if cmplx.Abs(fsum[i]-want) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / N.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 256
		x := randComplex(n, r)
		var et float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		y := FFT(append([]complex128(nil), x...))
		var ef float64
		for _, v := range y {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		return almostEqual(et, ef/float64(n), 1e-6*et+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestSpectrumSinusoid(t *testing.T) {
	const sr = 48000.0
	const freq = 3000.0
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / sr)
	}
	spec := FFTReal(x)
	best := 0
	for i := 1; i <= n/2; i++ {
		if cmplx.Abs(spec[i]) > cmplx.Abs(spec[best]) {
			best = i
		}
	}
	if got := float64(best) * sr / float64(n); math.Abs(got-freq) > sr/float64(n)*1.5 {
		t.Fatalf("peak at %.1f Hz, want ~%.1f Hz", got, freq)
	}
}

func TestBandPowerConcentration(t *testing.T) {
	const sr = 48000.0
	n := 9600
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 9000 * float64(i) / sr)
	}
	in := BandPower(x, sr, 6000, 12000)
	out := BandPower(x, sr, 0, 5000)
	if in <= 0 {
		t.Fatal("in-band power should be positive")
	}
	if out > in/100 {
		t.Fatalf("out-of-band power %g too large vs in-band %g", out, in)
	}
	// A 9 kHz unit sinusoid has mean power 0.5; allow window leakage.
	if !almostEqual(in, 0.5, 0.1) {
		t.Fatalf("in-band power %g, want ~0.5", in)
	}
}

func TestBandPowerEmptyAndDegenerate(t *testing.T) {
	if BandPower(nil, 48000, 6000, 12000) != 0 {
		t.Error("empty signal should have zero band power")
	}
	x := make([]float64, 100)
	if BandPower(x, 48000, 12000, 6000) != 0 {
		t.Error("inverted band should have zero power")
	}
}

func BenchmarkFFT48k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randComplex(65536, rng)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		FFT(buf)
	}
}
