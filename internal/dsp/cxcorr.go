package dsp

import (
	"math"
	"slices"
	"sync"
)

// PartitionedCorrelator streams the cross-correlation of a complex signal
// against a fixed template,
//
//	C[t] = Σ_i x[t+i] · conj(w[i]),
//
// by uniformly partitioned overlap-save. The template, front-padded with
// Lead() = P·B − len(w) zeros to P = ⌈len(w)/B⌉ whole partitions of B taps,
// is split into w_0 … w_{P−1}, and the signal arrives as segments of 2B
// samples that hop by B. Partition k's correlation over segment j is an
// ordinary 2B-point overlap-save block whose first B lags are exact, and C
// over lags [mB, (m+1)B) is the sum of partition k's block over segment
// m+k. Summing in the frequency domain makes one block cost one 2B-point
// forward transform (the newest segment) and one 2B-point inverse of the
// summed P spectrum products — against a single-partition correlator,
// whose transform must exceed the whole template, for the same B lags.
//
// The padding sits in front so that a block is complete the moment the
// window of its last lag is: the stream is read as if Lead() zeros preceded
// sample 0 (its zero history), which shifts the segments, not the lags.
//
// The partition spectra are immutable and shared by every correlator built
// for the same (tag, B) (see the template-spectrum cache below). What a
// stream owns is its delay line: the spectra of its last P−1 segments,
// allocated with the correlator and stored at complex64. The newest is
// transformed at complex128 in dst's spare capacity, where the products
// are summed and inverted. Rounding stored spectrum X_k moves each bin by
// at most 2⁻²⁴·|X_k[f]|, so by Cauchy–Schwarz and Parseval a lag moves by
// at most 2⁻²⁴·Σ_k ‖seg_k‖₂·‖w_k‖₂ over the stored segments: what rounding
// the segments themselves would cost, and the detector's baseband already
// is complex64. With P = 1 the result is plain complex128 overlap-save. A
// correlator serves one stream at a time.
type PartitionedCorrelator struct {
	b     int            // block: lags per block, and the segment hop
	lead  int            // zeros in front of the template (and the stream)
	p     *Plan4         // 2B-point plan
	parts [][]complex128 // parts[k] = conj(FFT(w_k))/2B, shared and immutable
	// line holds the delay line oldest first, paired with parts: line[k]
	// is the spectrum of the segment P−1−k hops before the one being
	// pushed. filled counts the slots that hold segments of the current
	// stream; blocks wait until all P−1 do.
	line   [][]complex64
	filled int
}

// NewPartitionedCorrelator prepares a correlator for the template in blocks
// of block lags; block must be a power of two. The partition spectra come
// from the shared cache under tag, which must identify the template (Ekho
// uses the PN sequence seed); a template that does not match what the tag
// cached gets private spectra.
func NewPartitionedCorrelator(template []complex128, block int, tag uint64) *PartitionedCorrelator {
	if block < 1 || !isPow2(block) {
		panic("dsp: partitioned correlator block must be a power of two")
	}
	if len(template) == 0 {
		panic("dsp: partitioned correlator needs a template")
	}
	n := 2 * block
	np := (len(template) + block - 1) / block
	c := &PartitionedCorrelator{
		b:     block,
		lead:  np*block - len(template),
		p:     Plan4For(n),
		parts: make([][]complex128, np),
		line:  make([][]complex64, np-1),
	}
	for k := range c.line {
		c.line[k] = make([]complex64, n)
	}
	for k := range c.parts {
		// Partition k holds padded taps [kB, (k+1)B): template taps from
		// kB − lead, the first partition starting lead taps in.
		at := max(c.lead-k*block, 0)
		taps := template[k*block+at-c.lead : (k+1)*block-c.lead]
		key := templateSpecKey{tag: tag, n: n, lead: c.lead, part: k}
		c.parts[k] = sharedSpectrum(key, checksumComplex(taps), func() []complex128 {
			return conjSpectrumComplex(taps, at, n)
		})
	}
	return c
}

// Block returns the lags per block, which is also how far each segment
// starts past the one before it.
func (c *PartitionedCorrelator) Block() int { return c.b }

// Partitions returns P, the number of B-tap template partitions.
func (c *PartitionedCorrelator) Partitions() int { return len(c.parts) }

// Lead returns the zeros that precede the stream in its first segment:
// P·B − len(template).
func (c *PartitionedCorrelator) Lead() int { return c.lead }

// SegmentLen returns the samples per Push: 2B.
func (c *PartitionedCorrelator) SegmentLen() int { return 2 * c.b }

// Push takes the stream's next segment — exactly SegmentLen() samples,
// starting Block() samples after the previous segment's start, the first at
// stream sample −Lead() (samples before 0 are zero) — and, once P segments
// are in, appends one block of Block() lags to dst: the j-th push (from 0)
// completes lags [(j−P+1)·B, (j−P+2)·B), the last of which reads through
// stream sample (j+2)·B − Lead() − 1, the segment's end. Earlier pushes
// only fill the delay line and return dst's elements unchanged. Like
// ComplexCorrelator.AppendCorrelate, every push transforms in dst's spare
// capacity, grown to SegmentLen() past len(dst) if short.
func (c *PartitionedCorrelator) Push(dst, seg []complex128) []complex128 {
	CheckLen("partitioned segment", len(seg), 2*c.b)
	at, n := len(dst), 2*c.b
	dst = slices.Grow(dst, n)
	x := dst[at : at+n]
	c.p.ForwardFrom(x, seg)
	newest := c.parts[len(c.line)][:n]
	if len(c.line) == 0 {
		for i, v := range x {
			x[i] = v * newest[i]
		}
	} else {
		// One pass sums the oldest and newest products and rounds the
		// newest spectrum into the oldest slot, which moves to the end.
		// A line still filling sums garbage that is never inverted.
		oldest, p0 := c.line[0][:n], c.parts[0][:n]
		for i, v := range x {
			s := complex128(oldest[i]) * p0[i]
			oldest[i] = complex64(v)
			x[i] = s + v*newest[i]
		}
		for k := 1; k < len(c.line); k++ {
			l, pk := c.line[k][:n], c.parts[k][:n]
			for i := range x {
				x[i] += complex128(l[i]) * pk[i]
			}
		}
		copy(c.line, c.line[1:])
		c.line[len(c.line)-1] = oldest
	}
	if c.filled < len(c.line) {
		c.filled++
		return dst[:at]
	}
	c.p.Inverse(x)
	return dst[:at+c.b]
}

// Reset starts a new stream: the next Push is its first segment.
func (c *PartitionedCorrelator) Reset() { c.filled = 0 }

// ComplexCorrelator is the single-partition form: overlap-save with one
// cached conjugate template spectrum, its transform longer than the
// template,
//
//	C[t] = Σ_i seg[t+i] · conj(w[i])   for t = 0 .. Step()-1.
//
// The detector correlates with PartitionedCorrelator; this form remains for
// timing a whole-template transform against it. A ComplexCorrelator holds
// no scratch of its own (both transforms run in dst), so one correlator is
// safe for concurrent calls.
type ComplexCorrelator struct {
	n    int          // FFT size
	m    int          // template length
	p    *Plan4       // shared transform plan (radix-4: see Plan4)
	wfft []complex128 // conj(FFT(template))/n, cached
}

// NewComplexCorrelator prepares a correlator for the template with a
// private spectrum. fftSize must be a power of two greater than the
// template length; Step() = fftSize − len(template) + 1 lags per call.
func NewComplexCorrelator(template []complex128, fftSize int) *ComplexCorrelator {
	if fftSize < NextPow2(len(template)+1) {
		fftSize = NextPow2(2 * len(template))
	}
	if fftSize < 2 {
		fftSize = 2
	}
	return &ComplexCorrelator{
		n:    fftSize,
		m:    len(template),
		p:    Plan4For(fftSize),
		wfft: conjSpectrumComplex(template, 0, fftSize),
	}
}

// conjSpectrumComplex returns conj(FFT(t))/fftSize for the fftSize-point
// sequence t holding taps at offset at and zeros elsewhere.
func conjSpectrumComplex(taps []complex128, at, fftSize int) []complex128 {
	w := make([]complex128, fftSize)
	copy(w[at:], taps)
	Plan4For(fftSize).Forward(w)
	// The overlap-save round trip needs a 1/n scale; folding it into the
	// cached spectrum makes the per-block inverse output directly usable.
	s := 1 / float64(fftSize)
	for i, v := range w {
		w[i] = complex(real(v)*s, -imag(v)*s)
	}
	return w
}

// Step returns the number of correlation lags produced per Correlate call.
func (c *ComplexCorrelator) Step() int { return c.n - c.m + 1 }

// SegmentLen returns the required input length per Correlate call (the
// trailing len(template)−1 samples overlap the next call's head).
func (c *ComplexCorrelator) SegmentLen() int { return c.n }

// CorrelateInto computes the correlation of seg (exactly SegmentLen()
// samples) into dst, resized to Step() reusing capacity. With a reused dst
// the steady state allocates nothing.
func (c *ComplexCorrelator) CorrelateInto(dst, seg []complex128) []complex128 {
	return c.AppendCorrelate(dst[:0], seg)
}

// AppendCorrelate appends the Step() lags of seg's correlation (seg is
// exactly SegmentLen() samples) to dst and returns the extended slice. Both
// transforms run in dst's spare capacity, which is grown to SegmentLen()
// past len(dst) if short, so the lags land where they are returned without
// a copy; like append, it overwrites whatever lies in that capacity. The
// template spectrum carries the 1/n round-trip scale (see
// conjSpectrumComplex).
func (c *ComplexCorrelator) AppendCorrelate(dst, seg []complex128) []complex128 {
	CheckLen("overlap-save segment", len(seg), c.n)
	at := len(dst)
	dst = slices.Grow(dst, c.n)
	x := dst[at : at+c.n]
	c.p.ForwardFrom(x, seg)
	for i, v := range x {
		x[i] = v * c.wfft[i]
	}
	c.p.Inverse(x)
	return dst[:at+c.Step()]
}

// Shared template-spectrum cache.
//
// Every hub session correlates against the same marker sequence. The
// conjugate partition spectra depend only on (template, FFT size,
// partition), so they are cached at package level like the transform plans
// and shared across sessions instead of each session transforming and
// storing its own.
//
// The cache key is a caller-supplied tag (Ekho uses the PN sequence seed)
// plus the FFT size, front padding and partition index; a checksum of the
// partition's taps guards against tag collisions — on mismatch the caller silently
// gets a private spectrum, so a colliding tag costs memory, never
// correctness.

type templateSpecKey struct {
	tag  uint64
	n    int // FFT size
	lead int // zeros in front of the template
	part int // partition index
}

type templateSpecEntry struct {
	sum  uint64
	spec []complex128 // immutable after publication
}

var templateSpecCache sync.Map // templateSpecKey -> *templateSpecEntry

// FNV-1a's 64-bit offset basis and prime, applied here a word at a time.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ChecksumFloats hashes a float slice's exact bit contents (FNV-1a over
// 64-bit words: each step is a bijection, so slices that differ in one
// value never collide); the template caches here and in the estimator use
// it to verify tag matches. Every hub admission hashes the 48000-sample
// marker, so it runs a word, not a byte, per step.
func ChecksumFloats(x []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * fnvPrime64
	}
	return h
}

func checksumComplex(x []complex128) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range x {
		h = (h ^ math.Float64bits(real(v))) * fnvPrime64
		h = (h ^ math.Float64bits(imag(v))) * fnvPrime64
	}
	return h
}

// sharedSpectrum returns the cached spectrum for key when its checksum
// matches sum, computing and publishing it on first use. A checksum
// mismatch (two different templates under one tag) falls back to a private
// computation.
func sharedSpectrum(key templateSpecKey, sum uint64, compute func() []complex128) []complex128 {
	if e, ok := templateSpecCache.Load(key); ok {
		ent := e.(*templateSpecEntry)
		if ent.sum == sum {
			return ent.spec
		}
		return compute()
	}
	ent := &templateSpecEntry{sum: sum, spec: compute()}
	if prev, loaded := templateSpecCache.LoadOrStore(key, ent); loaded {
		got := prev.(*templateSpecEntry)
		if got.sum == sum {
			return got.spec
		}
	}
	return ent.spec
}
