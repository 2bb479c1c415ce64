package dsp

import "slices"

// Fused band-translation front-ends for the two-stage marker detector.
//
// The textbook chain — a QuadOsc mix-down into a ÷2 half-band cascade — does
// its work in three passes over complex data, and profiles as the single
// largest line of the two-stage detector: the mix-down touches every
// 48 kHz sample, and each cascade stage runs a gathered sparse-tap FIR
// over complex inputs. The two types here compute the identical result in
// two dense passes:
//
// BandDecimator folds the heterodyne into the first (largest-factor)
// decimation stage. For a low-pass h and mix e^{-jω0·n},
//
//	y[m] = Σ_j h[j]·x[mM−j]·e^{-jω0(mM−j)}
//	     = e^{-jω0·M·m} · Σ_j (h[j]·e^{+jω0·j}) · x[mM−j]
//
// so the stage reads the *real* input directly with precomputed complex
// taps g[j] = h[j]·e^{+jω0·j} — one dense, contiguous real-by-complex dot
// per output — and applies the residual rotation e^{-jω0·M·m} from an
// exact table (for Ekho's ω0 = 2π·9000/48000 and M = 4 the table is just
// {1, +j, −1, −j}). No intermediate full-rate complex stream ever exists.
// When h is symmetric and its span N−1 is a whole number of oscillator
// periods, g[N−1−j] = conj(g[j]), so each tap pair folds to
// gr·(x₁+x₂) + j·gi·(x₁−x₂): one multiply per component per pair.
//
// HalfBandDecimator is the ÷2 tail of the chain: a symmetric half-band
// FIR over complex samples, stored as a center coefficient plus one
// coefficient per wing pair so each pair costs one multiply per component
// instead of two, with no gather indirection.
//
// Both types follow the Decimator streaming contract: output m is the
// causal convolution sampled at input index m·D with x[k<0] = 0, chunk
// boundaries never change the result, and steady-state Process allocates
// nothing when dst has capacity. Between calls each keeps only its tap
// history, the inputs the next output still reaches; a call stages that
// history and its input, in chunks of decimatorChunk, in a window
// borrowed from the package free list (scratch.go). Both the mic stream
// and the correlation template run through identically constructed
// instances, so group delays cancel and decimated lag τ still maps to
// full-rate sample τ·D exactly.

// BandDecimator mixes a real stream down by a fixed oscillator and
// decimates by M in a single fused pass (see the package comment above).
type BandDecimator struct {
	m    int
	hist int // inputs of lookback a retained output needs: len(taps)-1

	// Modulated taps g[j] = h[j]·e^{+jω0·j}, stored reversed so the inner
	// dot walks the input window forward and contiguously.
	gr, gi []float64
	// folded: the taps are conjugate-symmetric to rounding (see the
	// package comment), so the steady-state dot reads them in pairs.
	folded bool

	// rot[k] = e^{-jω0·M·k} over one exact period.
	rot []complex128
	// When every rot entry lies on a coordinate axis (ω0·M a multiple of
	// π/2, as for Ekho's 9 kHz band center at M = 4), quad holds the power
	// of j per entry and the rotation becomes a swap/negate instead of a
	// complex multiply. Empty otherwise.
	quad []uint8

	// Tap history: the inputs the next output still reaches, at most
	// hist of them; hbuf[0] is absolute input index base.
	hbuf []float64
	base int
	next int // next absolute output index to emit
}

// decimatorChunk is the most input a decimator stages per pass; a longer
// Process call runs in several, so the borrowed window has one size
// whatever the caller feeds.
const decimatorChunk = 1024

// NewBandDecimator builds a fused mix-down decimator: freq and rate define
// the oscillator e^{-j2π·freq/rate·n} (positive integers, exact period),
// factor the decimation M, taps the low-pass FIR for the mixed signal. The
// taps slice is read once and not retained.
func NewBandDecimator(freq, rate, factor int, taps []float64) *BandDecimator {
	if factor < 1 {
		panic("dsp: BandDecimator factor must be ≥ 1")
	}
	if len(taps) == 0 {
		panic("dsp: BandDecimator needs at least one tap")
	}
	osc := NewQuadOsc(freq, rate)
	n := len(taps)
	b := &BandDecimator{
		m:    factor,
		hist: n - 1,
		gr:   make([]float64, n),
		gi:   make([]float64, n),
		hbuf: make([]float64, 0, n-1),
	}
	for j, h := range taps {
		w := osc.Factor(j) // e^{-jω0·j}
		t := n - 1 - j
		b.gr[t] = h * real(w)
		b.gi[t] = -h * imag(w) // conjugate: e^{+jω0·j}
	}
	b.folded = n%2 == 1
	for t := 0; t <= n/2 && b.folded; t++ {
		b.folded = abs64(b.gr[t]-b.gr[n-1-t])+abs64(b.gi[t]+b.gi[n-1-t]) < 1e-12
	}
	period := osc.Period() / gcd(factor, osc.Period())
	b.rot = make([]complex128, period)
	quad := make([]uint8, period)
	axis := true
	for k := range b.rot {
		w := osc.Factor(k * factor)
		b.rot[k] = w
		// Sincos leaves ~1e-16 residue on axis angles; snap so the quad
		// path and the general path agree exactly.
		re, im := real(w), imag(w)
		switch {
		case re > 0.5 && abs64(im) < 1e-9:
			quad[k] = 0
		case im < -0.5 && abs64(re) < 1e-9:
			quad[k] = 1 // e^{-jπ/2} = −j
		case re < -0.5 && abs64(im) < 1e-9:
			quad[k] = 2
		case im > 0.5 && abs64(re) < 1e-9:
			quad[k] = 3 // e^{+jπ/2} = +j
		default:
			axis = false
		}
	}
	if axis {
		b.quad = quad
		rotExact := [4]complex128{1, complex(0, -1), -1, complex(0, 1)}
		for k := range b.rot {
			b.rot[k] = rotExact[quad[k]]
		}
	}
	return b
}

// Factor returns the decimation factor M.
func (b *BandDecimator) Factor() int { return b.m }

// Reset restarts the stream at input index 0, keeping the history's
// storage.
func (b *BandDecimator) Reset() { b.hbuf, b.base, b.next = b.hbuf[:0], 0, 0 }

// Process consumes real samples, appends every newly computable complex
// baseband output to dst and returns the extended slice.
func (b *BandDecimator) Process(dst []complex128, x []float64) []complex128 {
	win := BorrowFloats(b.hist + decimatorChunk)
	for len(x) > 0 {
		n := min(len(x), decimatorChunk)
		dst = b.pass(dst, append(append(win[:0], b.hbuf...), x[:n]...))
		x = x[n:]
	}
	ReturnFloats(win)
	return dst
}

// pass emits the outputs computable from buf, the tap history followed
// by new input, and keeps buf's tail as the next history. The dots land
// unrotated in dst's new tail for rotate to turn.
func (b *BandDecimator) pass(dst []complex128, buf []float64) []complex128 {
	i := b.next*b.m - b.base // buf index of the next output's newest input
	n := max(len(buf)-i+b.m-1, 0) / b.m
	dst = slices.Grow(dst, n)[:len(dst)+n]
	out := dst[len(dst)-n:]
	j := 0
	for ; j < n && i < b.hist; j, i = j+1, i+b.m { // stream head: taps before input 0 read zeros
		var sr, si float64
		for t := b.hist - i; t <= b.hist; t++ {
			v := buf[i-b.hist+t]
			sr += v * b.gr[t]
			si += v * b.gi[t]
		}
		out[j] = complex(sr, si)
	}
	if c := b.hist / 2; b.folded {
		// Steady state, folded: pairs (t, N−1−t), then the real center.
		gr, gi, gc := b.gr[:c], b.gi[:c], b.gr[c]
		for ; j < n; j, i = j+1, i+b.m {
			lo := i - b.hist
			sr, si := foldedDot(buf[lo:lo+c], buf[lo+c+1:i+1], gr, gi)
			out[j] = complex(sr+gc*buf[lo+c], si)
		}
	}
	for ; j < n; j, i = j+1, i+b.m {
		// Steady state: dense unrolled dot over the full window.
		win := buf[i-b.hist : i+1]
		gr := b.gr[:len(win)]
		gi := b.gi[:len(win)]
		var sr0, si0, sr1, si1 float64
		t := 0
		for ; t+1 < len(gr); t += 2 {
			x0, x1 := win[t], win[t+1]
			sr0 += x0 * gr[t]
			si0 += x0 * gi[t]
			sr1 += x1 * gr[t+1]
			si1 += x1 * gi[t+1]
		}
		if t < len(gr) {
			x0 := win[t]
			sr0 += x0 * gr[t]
			si0 += x0 * gi[t]
		}
		out[j] = complex(sr0+sr1, si0+si1)
	}
	b.rotate(out)
	// Keep the inputs the next output can still reach.
	drop := min(max(b.next*b.m-b.hist-b.base, 0), len(buf))
	b.hbuf = append(b.hbuf[:0], buf[drop:]...)
	b.base += drop
	return dst
}

// rotate applies the residual rotation to out, the stream's next outputs,
// phase by phase in strides of the period, so each phase picks its
// rotation once per call: on the axes a swap and negation, else a
// multiply. It then advances the stream past them.
func (b *BandDecimator) rotate(out []complex128) {
	per := len(b.rot)
	for k := range min(per, len(out)) {
		ph := (b.next + k) % per
		q := uint8(4)
		if b.quad != nil {
			q = b.quad[ph]
		}
		switch w := b.rot[ph]; q {
		case 1:
			for j := k; j < len(out); j += per {
				out[j] = complex(imag(out[j]), -real(out[j]))
			}
		case 2:
			for j := k; j < len(out); j += per {
				out[j] = -out[j]
			}
		case 3:
			for j := k; j < len(out); j += per {
				out[j] = complex(-imag(out[j]), real(out[j]))
			}
		case 4:
			for j := k; j < len(out); j += per {
				sr, si := real(out[j]), imag(out[j])
				out[j] = complex(sr*real(w)-si*imag(w), sr*imag(w)+si*real(w))
			}
		}
	}
	b.next += len(out)
}

// foldedDot sums the folded tap pairs, gr[t]·(x+y) and gi[t]·(x−y) for
// x = left[t] and y = right[len(right)−1−t]: both window ends inward, two
// pairs per iteration so each add chain splits across two accumulators.
func foldedDot(left, right, gr, gi []float64) (sr, si float64) {
	n := len(left)
	right, gr, gi = right[:n], gr[:n], gi[:n]
	var sr1, si1 float64
	t, r := 0, n-1
	for ; t+1 < n && r >= 1; t, r = t+2, r-2 {
		x0, y0, x1, y1 := left[t], right[r], left[t+1], right[r-1]
		sr += gr[t] * (x0 + y0)
		si += gi[t] * (x0 - y0)
		sr1 += gr[t+1] * (x1 + y1)
		si1 += gi[t+1] * (x1 - y1)
	}
	if t < n && r >= 0 {
		sr += gr[t] * (left[t] + right[r])
		si += gi[t] * (left[t] - right[r])
	}
	return sr + sr1, si + si1
}

// HalfBandDecimator halves the rate of a complex stream through a
// symmetric half-band low-pass (cutoff at a quarter of the input rate):
// center tap plus wing pairs at odd distances, every even-distance tap
// zero by design.
type HalfBandDecimator struct {
	center float64
	wing   []float64 // wing[t] weighs the pair at distance 2t+1
	c      int       // tap index of the center coefficient
	hist   int

	// Tap history, as in BandDecimator; hbuf[0] is absolute input index
	// base.
	hbuf []complex128
	base int
	next int
}

// NewHalfBandDecimator builds a ÷2 decimator from odd-length half-band
// taps (e.g. LowPass at a quarter of the input rate). Wing pairs are
// symmetrized; a design whose even-distance taps are not negligibly zero
// is rejected. The taps slice is read once and not retained.
func NewHalfBandDecimator(taps []float64) *HalfBandDecimator {
	n := len(taps)
	if n == 0 || n%2 == 0 {
		panic("dsp: HalfBandDecimator needs odd-length taps")
	}
	c := n / 2
	var maxAbs float64
	for _, h := range taps {
		if a := abs64(h); a > maxAbs {
			maxAbs = a
		}
	}
	h := &HalfBandDecimator{center: taps[c], c: c, hist: n - 1, hbuf: make([]complex128, 0, n-1)}
	for d := 1; d <= c; d++ {
		lo, hi := taps[c-d], taps[c+d]
		if d%2 == 0 {
			if abs64(lo) > 1e-9*maxAbs || abs64(hi) > 1e-9*maxAbs {
				panic("dsp: HalfBandDecimator taps are not a half-band design")
			}
			continue
		}
		h.wing = append(h.wing, (lo+hi)/2)
	}
	return h
}

// Reset restarts the stream at input index 0, keeping the history's
// storage.
func (h *HalfBandDecimator) Reset() { h.hbuf, h.base, h.next = h.hbuf[:0], 0, 0 }

// Process consumes complex samples, appends every newly computable output
// to dst and returns the extended slice.
func (h *HalfBandDecimator) Process(dst []complex128, x []complex128) []complex128 {
	win := BorrowComplex(h.hist + decimatorChunk)
	for len(x) > 0 {
		n := min(len(x), decimatorChunk)
		dst = h.pass(dst, append(append(win[:0], h.hbuf...), x[:n]...))
		x = x[n:]
	}
	ReturnComplex(win)
	return dst
}

// pass is BandDecimator.pass for the half-band stage.
func (h *HalfBandDecimator) pass(dst []complex128, buf []complex128) []complex128 {
	end := h.base + len(buf)
	for k := h.next * 2; k < end; k += 2 {
		i := k - h.base
		var sr, si float64
		if lo := i - h.hist; lo >= 0 {
			// Steady state: center plus symmetric wing pairs, two pairs per
			// iteration so each component's add chain splits across two
			// accumulators instead of serializing on FP-add latency.
			win := buf[lo : i+1]
			cv := win[h.c]
			sr0 := h.center * real(cv)
			si0 := h.center * imag(cv)
			var sr1, si1 float64
			wing := h.wing
			dn, up := h.c-1, h.c+1
			t := 0
			for ; t+1 < len(wing); t += 2 {
				a0, b0 := win[dn], win[up]
				a1, b1 := win[dn-2], win[up+2]
				w0, w1 := wing[t], wing[t+1]
				sr0 += w0 * (real(a0) + real(b0))
				si0 += w0 * (imag(a0) + imag(b0))
				sr1 += w1 * (real(a1) + real(b1))
				si1 += w1 * (imag(a1) + imag(b1))
				dn -= 4
				up += 4
			}
			if t < len(wing) {
				a, b := win[dn], win[up]
				sr0 += wing[t] * (real(a) + real(b))
				si0 += wing[t] * (imag(a) + imag(b))
			}
			sr, si = sr0+sr1, si0+si1
		} else {
			// Stream head: taps reaching before input 0 read zeros.
			cpos := i - h.c
			if cpos >= 0 {
				cv := buf[cpos]
				sr = h.center * real(cv)
				si = h.center * imag(cv)
			}
			for t, wv := range h.wing {
				d := 2*t + 1
				if j := cpos - d; j >= 0 {
					v := buf[j]
					sr += wv * real(v)
					si += wv * imag(v)
				}
				if j := cpos + d; j >= 0 {
					v := buf[j]
					sr += wv * real(v)
					si += wv * imag(v)
				}
			}
		}
		dst = append(dst, complex(sr, si))
		h.next++
	}
	// Keep the inputs the next output can still reach.
	drop := min(max(h.next*2-h.hist-h.base, 0), len(buf))
	h.hbuf = append(h.hbuf[:0], buf[drop:]...)
	h.base += drop
	return dst
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
