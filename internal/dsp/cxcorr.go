package dsp

import (
	"math"
	"slices"
	"sync"
)

// ComplexCorrelator performs streaming cross-correlation against a fixed
// complex template using overlap-save with a cached conjugate template
// spectrum,
//
//	C[t] = Σ_i seg[t+i] · conj(w[i])   for t = 0 .. Step()-1.
//
// Compared to calling a one-shot correlation per chunk — which pays a
// forward FFT of the template every time and re-transforms the
// template-length overlap — a correlator amortizes to roughly two FFTs per
// Step() lags. The marker detector uses it on the heterodyned, decimated
// mic stream, whose template is ~D× shorter than the full-rate marker.
//
// A correlator holds no scratch of its own: the forward spectrum is
// borrowed from the package free list for one call (see scratch.go) and
// the inverse runs in the caller's output buffer, so a hub's per-session
// correlators cost only their shared plan and template spectrum, and one
// correlator is safe for concurrent calls.
type ComplexCorrelator struct {
	n    int          // FFT size
	m    int          // template length
	p    *Plan4       // shared transform plan (radix-4: see Plan4)
	wfft []complex128 // conj(FFT(template))/n, cached (possibly shared)
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
		wfft: conjSpectrumComplex(template, fftSize),
	}
}

// NewComplexCorrelatorShared is NewComplexCorrelator with the conjugate
// template spectrum served from the package-level template-spectrum cache:
// every correlator built for the same (tag, FFT size) shares one immutable
// spectrum instead of each storing its own. The tag must identify the
// template (Ekho uses the PN sequence seed); a content checksum detects
// tag collisions and falls back to a private spectrum.
func NewComplexCorrelatorShared(template []complex128, fftSize int, tag uint64) *ComplexCorrelator {
	if fftSize < NextPow2(len(template)+1) {
		fftSize = NextPow2(2 * len(template))
	}
	if fftSize < 2 {
		fftSize = 2
	}
	n := fftSize
	return &ComplexCorrelator{
		n: n,
		m: len(template),
		p: Plan4For(n),
		wfft: sharedSpectrum(tag, n, checksumComplex(template), func() []complex128 {
			return conjSpectrumComplex(template, n)
		}),
	}
}

func conjSpectrumComplex(template []complex128, fftSize int) []complex128 {
	w := make([]complex128, fftSize)
	copy(w, template)
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
// exactly SegmentLen() samples) to dst and returns the extended slice. The
// inverse transform runs in place in dst's spare capacity, which is grown
// to SegmentLen() past len(dst) if short, so the lags land where they are
// returned without a copy; like append, it overwrites whatever lies in
// that capacity. The template spectrum carries the 1/n round-trip scale
// (see conjSpectrumComplex), and both transforms run through Plan4's fused
// gather entry points, so the whole block is three passes of transform
// butterflies and nothing else.
func (c *ComplexCorrelator) AppendCorrelate(dst, seg []complex128) []complex128 {
	CheckLen("overlap-save segment", len(seg), c.n)
	at := len(dst)
	dst = slices.Grow(dst, c.n)
	x := BorrowComplex(c.n)
	c.p.ForwardFrom(x, seg)
	c.p.InverseFromProduct(dst[at:at+c.n], x, c.wfft)
	ReturnComplex(x)
	return dst[:at+c.Step()]
}

// CrossCorrelateComplex computes C[t] = Σ_i x[t+i]·conj(w[i]) for
// t = 0..len(x)-len(w) directly. The streaming detector only uses it for
// the Flush tail (lags short of one overlap-save block); sized work goes
// through ComplexCorrelator.
func CrossCorrelateComplex(x, w []complex128) []complex128 {
	n := len(x) - len(w) + 1
	if n <= 0 {
		return nil
	}
	out := make([]complex128, n)
	for t := 0; t < n; t++ {
		var sr, si float64
		seg := x[t : t+len(w)]
		for i, wv := range w {
			v := seg[i]
			// v · conj(wv)
			sr += real(v)*real(wv) + imag(v)*imag(wv)
			si += imag(v)*real(wv) - real(v)*imag(wv)
		}
		out[t] = complex(sr, si)
	}
	return out
}

// Shared template-spectrum cache.
//
// Every hub session correlates against the same marker sequence. The
// conjugate template spectra depend only on (template, FFT size), so they
// are cached at package level like the transform plans and shared across
// sessions instead of each session transforming and storing its own.
//
// The cache key is a caller-supplied tag (Ekho uses the PN sequence seed)
// plus the FFT size; a checksum of the template contents guards against
// tag collisions — on mismatch the caller silently gets a private
// spectrum, so a colliding tag costs memory, never correctness.

type templateSpecKey struct {
	tag uint64
	n   int // FFT size
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

// sharedSpectrum returns the cached spectrum for (tag, n) when its
// checksum matches sum, computing and publishing it on first use. A
// checksum mismatch (two different templates under one tag) falls back to
// a private computation.
func sharedSpectrum(tag uint64, n int, sum uint64, compute func() []complex128) []complex128 {
	key := templateSpecKey{tag: tag, n: n}
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
