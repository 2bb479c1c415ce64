package dsp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// naiveMDCT is the textbook O(N²) reference.
func naiveMDCT(x []float64) []float64 {
	n := len(x) / 2
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for i, v := range x {
			s += v * math.Cos(math.Pi/float64(n)*(float64(i)+0.5+float64(n)/2)*(float64(k)+0.5))
		}
		out[k] = s
	}
	return out
}

func naiveIMDCT(spec []float64) []float64 {
	n := len(spec)
	out := make([]float64, 2*n)
	for i := range out {
		var s float64
		for k, v := range spec {
			s += v * math.Cos(math.Pi/float64(n)*(float64(i)+0.5+float64(n)/2)*(float64(k)+0.5))
		}
		out[i] = s * 2 / float64(n)
	}
	return out
}

func TestMDCTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8, 16, 60, 128, 480, 960} {
		x := make([]float64, 2*n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := naiveMDCT(x)
		got := NewMDCTPlan(n).Forward(nil, x)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %g want %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestIMDCTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 60, 480} {
		spec := make([]float64, n)
		for i := range spec {
			spec[i] = rng.NormFloat64()
		}
		want := naiveIMDCT(spec)
		got := NewMDCTPlan(n).Inverse(nil, spec)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d sample %d: got %g want %g", n, i, got[i], want[i])
			}
		}
	}
}

// sineWindow is the MDCT sine window sin(π(i+½)/L): symmetric and
// Princen-Bradley compliant (w[i]² + w[i+L/2]² = 1), the classic choice
// for TDAC codecs (MP3, CELT's family).
func sineWindow(l int) []float64 {
	w := make([]float64, l)
	for i := range w {
		w[i] = math.Sin(math.Pi * (float64(i) + 0.5) / float64(l))
	}
	return w
}

func TestTDACPerfectReconstruction(t *testing.T) {
	// Windowed MDCT → IMDCT → windowed 50% overlap-add must reconstruct
	// the interior of the signal exactly.
	const n = 480
	rng := rand.New(rand.NewSource(3))
	sig := make([]float64, 8*n)
	for i := range sig {
		sig[i] = rng.NormFloat64()
	}
	w := sineWindow(2 * n)
	p := NewMDCTPlan(n)
	recon := make([]float64, len(sig))
	for start := 0; start+2*n <= len(sig); start += n {
		block := make([]float64, 2*n)
		for i := range block {
			block[i] = sig[start+i] * w[i]
		}
		spec := p.Forward(nil, block)
		back := p.Inverse(nil, spec)
		for i := range back {
			recon[start+i] += back[i] * w[i]
		}
	}
	// Interior samples (after the first hop, before the last) are exact.
	var maxErr float64
	for i := n; i < len(sig)-2*n; i++ {
		if e := math.Abs(recon[i] - sig[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-9 {
		t.Fatalf("TDAC reconstruction error %g", maxErr)
	}
}

func TestTDACReconstructionProperty(t *testing.T) {
	w := sineWindow(2 * 128)
	p := NewMDCTPlan(128)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 128
		sig := make([]float64, 6*n)
		for i := range sig {
			sig[i] = rng.Float64()*2 - 1
		}
		recon := make([]float64, len(sig))
		for start := 0; start+2*n <= len(sig); start += n {
			block := make([]float64, 2*n)
			for i := range block {
				block[i] = sig[start+i] * w[i]
			}
			back := p.Inverse(nil, p.Forward(nil, block))
			for i := range back {
				recon[start+i] += back[i] * w[i]
			}
		}
		for i := n; i < len(sig)-2*n; i++ {
			if math.Abs(recon[i]-sig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMDCTPanicsOnOddLength: the N/2-point algorithm pairs the folded
// samples, so an odd bin count has no transform; the panic must say so.
func TestMDCTPanicsOnOddLength(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "even nBins") || !strings.Contains(msg, "7") {
			t.Fatalf("NewMDCTPlan(7) panic = %q, want the even-nBins constraint and the value", msg)
		}
	}()
	NewMDCTPlan(7)
}

func TestMDCTEnergyCompaction(t *testing.T) {
	// A windowed sinusoid concentrates MDCT energy in few bins — the
	// property the codec's bit allocation exploits.
	const n = 960
	w := sineWindow(2 * n)
	block := make([]float64, 2*n)
	for i := range block {
		block[i] = math.Sin(2*math.Pi*3000*float64(i)/48000) * w[i]
	}
	spec := NewMDCTPlan(n).Forward(nil, block)
	var total float64
	for _, v := range spec {
		total += v * v
	}
	// Energy in the strongest 8 bins.
	top := append([]float64(nil), spec...)
	for i := range top {
		top[i] = top[i] * top[i]
	}
	var best8 float64
	for pass := 0; pass < 8; pass++ {
		bi := 0
		for i, v := range top {
			if v > top[bi] {
				bi = i
			}
		}
		best8 += top[bi]
		top[bi] = 0
	}
	if best8 < 0.95*total {
		t.Fatalf("energy compaction %.3f, want > 0.95", best8/total)
	}
}

func BenchmarkMDCT960(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 1920)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p := NewMDCTPlan(960)
	spec := make([]float64, 960)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec = p.Forward(spec, x)
	}
}
