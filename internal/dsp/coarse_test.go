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
// correlators with their shared template-spectrum cache.

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

// Correlators built for one template under one tag share every partition
// spectrum; a different template under the same tag (a seed collision)
// must not be served the cached spectrum of a partition it changed.
func TestSharedSpectrumIdentity(t *testing.T) {
	w := make([]complex128, 150)
	for i := range w {
		w[i] = complex(float64(i), -float64(i))
	}
	const tag = 0xc0a12e<<32 | 101
	a := NewPartitionedCorrelator(w, 64, tag)
	b := NewPartitionedCorrelator(w, 64, tag)
	if a.Partitions() != 3 {
		t.Fatalf("%d partitions, want 3", a.Partitions())
	}
	for k := range a.parts {
		if &a.parts[k][0] != &b.parts[k][0] {
			t.Fatalf("partition %d: same template and tag should share one cached spectrum", k)
		}
	}
	w2 := append([]complex128(nil), w...)
	w2[70] += 1 // partition 1
	c := NewPartitionedCorrelator(w2, 64, tag)
	if &c.parts[1][0] == &a.parts[1][0] {
		t.Fatal("checksum mismatch must fall back to a private spectrum")
	}
	if &c.parts[0][0] != &a.parts[0][0] || &c.parts[2][0] != &a.parts[2][0] {
		t.Fatal("partitions whose contents match should still be shared")
	}
	x := make([]complex128, 600)
	x[100] = 1
	assertStreamMatches(t, c, x, w2, "collision fallback")
}

func TestSharedSpectrumConcurrent(t *testing.T) {
	w := make([]complex128, 128)
	for i := range w {
		w[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	const tag = 0xface<<32 | 7
	var wg sync.WaitGroup
	cs := make([]*PartitionedCorrelator, 16)
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs[i] = NewPartitionedCorrelator(w, 32, tag)
		}(i)
	}
	wg.Wait()
	x := make([]complex128, 400)
	x[1] = complex(0, 1)
	x[250] = 2
	for i, c := range cs {
		for k := range c.parts {
			if &c.parts[k][0] != &cs[0].parts[k][0] {
				t.Fatalf("correlator %d partition %d not shared", i, k)
			}
		}
		assertStreamMatches(t, c, x, w, fmt.Sprintf("correlator %d", i))
	}
}

// streamPartitioned pushes x through c segment by segment, as a stream
// does — Lead() zeros of history, then x — and returns every lag it
// completes.
func streamPartitioned(c *PartitionedCorrelator, x []complex128) []complex128 {
	xp := append(make([]complex128, c.Lead()), x...)
	var out []complex128
	for s := 0; s+c.SegmentLen() <= len(xp); s += c.Block() {
		out = c.Push(out, xp[s:s+c.SegmentLen()])
	}
	return out
}

// assertStreamMatches streams x through c, built for template w, and
// checks every completed lag against the direct correlation; the lags
// cover it up to the last whole block. The delay line stores P−1 segment
// spectra at complex64, each bin rounded by at most 2⁻²⁴ of its magnitude,
// which by Cauchy–Schwarz and Parseval moves lag t of block m by at most
// 2⁻²⁴·Σ_k ‖seg_{m+k}‖₂·‖w_k‖₂ over the stored k < P−1 (segments and
// partitions as the correlator cuts them, zero lead included). The rest is
// complex128 overlap-save, held to 1e-9 of the output's scale; with P = 1
// that is the whole bound.
func assertStreamMatches(t *testing.T, c *PartitionedCorrelator, x, w []complex128, what string) {
	t.Helper()
	want := CrossCorrelateComplex(x, w)
	got := streamPartitioned(c, x)
	if len(got) == 0 {
		t.Fatalf("%s: no lags completed", what)
	}
	if len(got) > len(want) {
		got = got[:len(want)]
	}
	scale := 0.0
	for _, v := range want {
		scale = max(scale, cmplx.Abs(v))
	}
	b, lead := c.Block(), make([]complex128, c.Lead())
	xp, wp := append(lead, x...), append(lead[:len(lead):len(lead)], w...)
	norm := func(v []complex128) float64 {
		s := 0.0
		for _, z := range v {
			s += real(z)*real(z) + imag(z)*imag(z)
		}
		return math.Sqrt(s)
	}
	for i := range got {
		m, stored := i/b, 0.0
		for k := 0; k < c.Partitions()-1; k++ {
			stored += norm(xp[(m+k)*b:(m+k+2)*b]) * norm(wp[k*b:(k+1)*b])
		}
		bound := 0x1p-24*stored + 1e-9*(scale+1)
		if e := cmplx.Abs(got[i] - want[i]); e > bound {
			t.Fatalf("%s lag %d: partitioned %v direct %v (off %g, bound %g)", what, i, got[i], want[i], e, bound)
		}
	}
}

// Property: for P ∈ {1, 2, 3, 4} partitions, templates that fill their last
// partition or not, the partitioned stream reproduces the direct
// correlation from lag 0 (the zero-history head: nothing is emitted until
// P segments are in, and then lag 0 first), and Reset starts a stream that
// is indistinguishable from a fresh correlator's.
func TestPartitionedCorrelatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const block = 64
	for p := 1; p <= 4; p++ {
		for _, m := range []int{(p-1)*block + 1, p*block - 17, p * block} {
			what := fmt.Sprintf("P=%d m=%d", p, m)
			w := make([]complex128, m)
			for i := range w {
				w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			x := make([]complex128, 12*block+rng.Intn(block))
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			c := NewPartitionedCorrelator(w, block, uint64(1000+m))
			if c.Partitions() != p {
				t.Fatalf("%s: %d partitions", what, c.Partitions())
			}
			if c.Lead() != p*block-m {
				t.Fatalf("%s: lead %d", what, c.Lead())
			}
			// Head: the first P−1 segments emit nothing.
			xp := append(make([]complex128, c.Lead()), x...)
			var head []complex128
			for j := 0; j < p-1; j++ {
				if head = c.Push(head, xp[j*block:j*block+2*block]); len(head) != 0 {
					t.Fatalf("%s: segment %d emitted before the delay line filled", what, j)
				}
			}
			c.Reset()
			assertStreamMatches(t, c, x, w, what)
			// A block is out as soon as its last lag's window is: every
			// whole block of lags in x.
			lags := len(x) - m + 1
			if got := len(streamPartitioned(NewPartitionedCorrelator(w, block, uint64(1000+m)), x)); got != lags/block*block {
				t.Fatalf("%s: %d lags from %d samples, want %d", what, got, len(x), lags/block*block)
			}
			// Reset mid-stream, then a different stream.
			streamPartitioned(c, x[:5*block])
			c.Reset()
			y := x[block/2:]
			assertStreamMatches(t, c, y, w, what+" after Reset")
		}
	}
}

// Push borrows the newest spectrum and rotates the delay line through the
// free list: once the line is full the stream allocates nothing.
func TestPartitionedCorrelatorSteadyStateAllocs(t *testing.T) {
	w := make([]complex128, 300)
	for i := range w {
		w[i] = complex(1, -1)
	}
	c := NewPartitionedCorrelator(w, 128, 0xa110c)
	seg := make([]complex128, c.SegmentLen())
	dst := make([]complex128, 0, 2*c.SegmentLen())
	for i := 0; i < c.Partitions(); i++ {
		dst = c.Push(dst[:0], seg)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dst = c.Push(dst[:0], seg)
	}); allocs > 0 {
		t.Fatalf("Push allocates %v times per block", allocs)
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

// The detector's coarse correlation: the 6000-tap decimated marker on
// 2B-point transforms, at the detector's block (B = 2048, P = 3) and the
// powers of two either side.
func BenchmarkPartitionedCorrelator(b *testing.B) {
	w := make([]complex128, 6000)
	for i := range w {
		w[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	for _, block := range []int{1024, 2048, 4096} {
		b.Run(fmt.Sprintf("B=%d", block), func(b *testing.B) {
			c := NewPartitionedCorrelator(w, block, 0xbe7c4)
			seg := make([]complex128, c.SegmentLen())
			for i := range seg {
				seg[i] = complex(float64(i%11), float64(i%13))
			}
			dst := make([]complex128, 0, c.SegmentLen())
			for i := 0; i < c.Partitions(); i++ {
				dst = c.Push(dst[:0], seg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = c.Push(dst[:0], seg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Block()), "ns/lag")
		})
	}
}
