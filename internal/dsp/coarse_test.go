package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// Tests for the band-decimation front-end primitives: the quadrature
// oscillator, the polyphase decimator and the complex overlap-save
// correlator with its shared template-spectrum cache.

func TestQuadOscExactPeriod(t *testing.T) {
	o := NewQuadOsc(9000, 48000)
	if o.Period() != 16 {
		t.Fatalf("period %d want 16 (9000/48000 = 3/16)", o.Period())
	}
	// Every table entry must be the exact unit-circle point, and Factor
	// must wrap with zero phase drift at arbitrary distances.
	for k := 0; k < 64; k++ {
		want := cmplx.Exp(complex(0, -2*math.Pi*9000*float64(k%16)/48000))
		if d := cmplx.Abs(o.Factor(k) - want); d > 1e-14 {
			t.Fatalf("Factor(%d) off by %g", k, d)
		}
	}
	far := 16 * 1_000_000_007 / 16 * 16 // huge multiple of the period
	if d := cmplx.Abs(o.Factor(far+5) - o.Factor(5)); d != 0 {
		t.Fatalf("phase drift %g at distance %d", d, far)
	}
}

func TestQuadOscMixDownChunkInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	whole := newRefMixer(9000, 48000).MixDown(nil, x)
	o := newRefMixer(9000, 48000)
	var chunked []complex128
	for pos := 0; pos < len(x); {
		n := 1 + rng.Intn(300)
		if pos+n > len(x) {
			n = len(x) - pos
		}
		chunked = o.MixDown(chunked, x[pos:pos+n])
		pos += n
	}
	for i := range whole {
		if d := cmplx.Abs(whole[i] - chunked[i]); d > 0 {
			t.Fatalf("sample %d differs by %g across chunkings", i, d)
		}
	}
}

// decimateDirect is the textbook reference: causal FIR at every D-th
// input position.
func decimateDirect(x []complex128, taps []float64, d int) []complex128 {
	var out []complex128
	for k := 0; k < len(x); k += d {
		var s complex128
		for j, h := range taps {
			if i := k - j; i >= 0 {
				s += x[i] * complex(h, 0)
			}
		}
		out = append(out, s)
	}
	return out
}

func TestDecimatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([]complex128, 2000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	taps := LowPass(2500, 24000, 23).Taps
	for _, d := range []int{1, 2, 3, 4, 8} {
		got := NewDecimator(d, taps).Process(nil, x)
		want := decimateDirect(x, taps, d)
		if len(got) != len(want) {
			t.Fatalf("D=%d: %d outputs want %d", d, len(got), len(want))
		}
		for i := range want {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-12 {
				t.Fatalf("D=%d output %d: off by %g", d, i, e)
			}
		}
	}
}

func TestDecimatorChunkInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]complex128, 6000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	taps := LowPass(2400, 24000, 31).Taps
	whole := NewDecimator(4, taps).Process(nil, x)
	st := NewDecimator(4, taps)
	var chunked []complex128
	for pos := 0; pos < len(x); {
		n := 1 + rng.Intn(500)
		if pos+n > len(x) {
			n = len(x) - pos
		}
		chunked = st.Process(chunked, x[pos:pos+n])
		pos += n
	}
	if len(whole) != len(chunked) {
		t.Fatalf("chunked run emitted %d outputs want %d", len(chunked), len(whole))
	}
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("output %d differs across chunkings", i)
		}
	}
}

func TestDecimatorSteadyStateAllocs(t *testing.T) {
	taps := LowPass(2400, 24000, 31).Taps
	st := NewDecimator(4, taps)
	x := make([]complex128, 960)
	dst := make([]complex128, 0, 4096)
	// Warm the history window to steady state.
	for i := 0; i < 4; i++ {
		dst = st.Process(dst[:0], x)
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = st.Process(dst[:0], x)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Process allocates %v times per frame", allocs)
	}
}

func TestComplexCorrelatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := make([]complex128, 300)
	for i := range w {
		w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := NewComplexCorrelator(w, 1024)
	if c.Step() != 1024-300+1 {
		t.Fatalf("step %d want %d", c.Step(), 1024-300+1)
	}
	seg := make([]complex128, c.SegmentLen())
	for i := range seg {
		seg[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := c.CorrelateInto(nil, seg)
	want := CrossCorrelateComplex(seg, w)
	if len(got) != len(want) {
		t.Fatalf("%d lags want %d", len(got), len(want))
	}
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > 1e-9 {
			t.Fatalf("lag %d: fft %v direct %v", i, got[i], want[i])
		}
	}
}

// AppendCorrelate leaves what dst already holds in place and appends the
// same lags CorrelateInto produces.
func TestAppendCorrelateKeepsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := make([]complex128, 100)
	for i := range w {
		w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := NewComplexCorrelator(w, 512)
	seg := make([]complex128, c.SegmentLen())
	for i := range seg {
		seg[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := c.CorrelateInto(nil, seg)
	prefix := []complex128{1, 2i, 3}
	got := c.AppendCorrelate(append([]complex128(nil), prefix...), seg)
	if len(got) != len(prefix)+c.Step() {
		t.Fatalf("%d elements, want %d", len(got), len(prefix)+c.Step())
	}
	for i, v := range prefix {
		if got[i] != v {
			t.Fatalf("prefix[%d] = %v, want %v", i, got[i], v)
		}
	}
	for i, v := range want {
		if got[len(prefix)+i] != v {
			t.Fatalf("lag %d: appended %v, CorrelateInto %v", i, got[len(prefix)+i], v)
		}
	}
}

// A correlator holds no scratch, so concurrent callers may share one; the
// free list hands each in-flight call its own spectrum buffer.
func TestComplexCorrelatorConcurrentCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := make([]complex128, 200)
	for i := range w {
		w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := NewComplexCorrelator(w, 1024)
	segs := make([][]complex128, 8)
	wants := make([][]complex128, len(segs))
	for k := range segs {
		segs[k] = make([]complex128, c.SegmentLen())
		for i := range segs[k] {
			segs[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		wants[k] = c.CorrelateInto(nil, segs[k])
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(segs))
	for k := range segs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var dst []complex128
			for rep := 0; rep < 20; rep++ {
				dst = c.CorrelateInto(dst[:0], segs[k])
				for i, v := range wants[k] {
					if dst[i] != v {
						errs <- fmt.Sprintf("caller %d lag %d: %v, want %v", k, i, dst[i], v)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Borrow after Return hands back the same storage, without allocating.
func TestFreeListReuse(t *testing.T) {
	const n = 4099 // a size no other test borrows
	a := BorrowFloats(n)
	ReturnFloats(a)
	if b := BorrowFloats(n); &b[0] != &a[0] || len(b) != n {
		t.Fatal("free list did not reuse the returned buffer")
	} else {
		ReturnFloats(b)
	}
	if allocs := testing.AllocsPerRun(50, func() { ReturnComplex(BorrowComplex(n)) }); allocs > 0 {
		t.Fatalf("borrow/return allocates %v times", allocs)
	}
}

func TestComplexCorrelatorSteadyStateAllocs(t *testing.T) {
	w := make([]complex128, 300)
	for i := range w {
		w[i] = complex(1, -1)
	}
	c := NewComplexCorrelator(w, 1024)
	seg := make([]complex128, c.SegmentLen())
	dst := make([]complex128, 0, c.Step())
	allocs := testing.AllocsPerRun(50, func() {
		dst = c.CorrelateInto(dst[:0], seg)
	})
	if allocs > 0 {
		t.Fatalf("CorrelateInto allocates %v times per block", allocs)
	}
}

func TestSharedSpectrumIdentity(t *testing.T) {
	w := make([]complex128, 64)
	for i := range w {
		w[i] = complex(float64(i), -float64(i))
	}
	const tag = 0xc0a12e<<32 | 101
	a := NewComplexCorrelatorShared(w, 256, tag)
	b := NewComplexCorrelatorShared(w, 256, tag)
	if &a.wfft[0] != &b.wfft[0] {
		t.Fatal("same template and tag should share one cached spectrum")
	}
	// A different template under the same tag (seed collision) must not
	// be served the cached spectrum.
	w2 := make([]complex128, 64)
	copy(w2, w)
	w2[3] += 1
	c := NewComplexCorrelatorShared(w2, 256, tag)
	if &c.wfft[0] == &a.wfft[0] {
		t.Fatal("checksum mismatch must fall back to a private spectrum")
	}
	seg := make([]complex128, c.SegmentLen())
	seg[0] = 1
	got := c.CorrelateInto(nil, seg)
	want := CrossCorrelateComplex(seg, w2)
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > 1e-9 {
			t.Fatalf("collision fallback correlates wrong template (lag %d)", i)
		}
	}
}

func TestSharedSpectrumConcurrent(t *testing.T) {
	w := make([]complex128, 128)
	for i := range w {
		w[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	const tag = 0xface<<32 | 7
	var wg sync.WaitGroup
	cs := make([]*ComplexCorrelator, 16)
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs[i] = NewComplexCorrelatorShared(w, 512, tag)
		}(i)
	}
	wg.Wait()
	seg := make([]complex128, cs[0].SegmentLen())
	seg[1] = complex(0, 1)
	want := CrossCorrelateComplex(seg, w)
	for i, c := range cs {
		got := c.CorrelateInto(nil, seg)
		for k := range want {
			if e := cmplx.Abs(got[k] - want[k]); e > 1e-9 {
				t.Fatalf("correlator %d lag %d off by %g", i, k, e)
			}
		}
	}
}

func BenchmarkComplexCorrelator(b *testing.B) {
	w := make([]complex128, 6000)
	for i := range w {
		w[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	c := NewComplexCorrelator(w, 16384)
	seg := make([]complex128, c.SegmentLen())
	for i := range seg {
		seg[i] = complex(float64(i%11), float64(i%13))
	}
	dst := make([]complex128, 0, c.Step())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.CorrelateInto(dst[:0], seg)
	}
}
