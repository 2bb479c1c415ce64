package dsp

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
//
// HalfBandDecimator is the ÷2 tail of the chain: a symmetric half-band
// FIR over complex samples, stored as a center coefficient plus one
// coefficient per wing pair so each pair costs one multiply per component
// instead of two, with no gather indirection.
//
// Both types follow the Decimator streaming contract: output m is the
// causal convolution sampled at input index m·D with x[k<0] = 0, chunk
// boundaries never change the result, and steady-state Process allocates
// nothing when dst has capacity. Both the mic stream and the correlation
// template run through identically constructed instances, so group delays
// cancel and decimated lag τ still maps to full-rate sample τ·D exactly.

// BandDecimator mixes a real stream down by a fixed oscillator and
// decimates by M in a single fused pass (see the package comment above).
type BandDecimator struct {
	m    int
	hist int // inputs of lookback a retained output needs: len(taps)-1

	// Modulated taps g[j] = h[j]·e^{+jω0·j}, stored reversed so the inner
	// dot walks the input window forward and contiguously.
	gr, gi []float64

	// rot[k] = e^{-jω0·M·k} over one exact period.
	rot []complex128
	// When every rot entry lies on a coordinate axis (ω0·M a multiple of
	// π/2, as for Ekho's 9 kHz band center at M = 4), quad holds the power
	// of j per entry and the rotation becomes a swap/negate instead of a
	// complex multiply. Empty otherwise.
	quad []uint8

	// Sliding real input window; buf[0] is absolute input index base.
	buf  []float64
	base int
	next int // next absolute output index to emit
}

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
	}
	for j, h := range taps {
		w := osc.Factor(j) // e^{-jω0·j}
		t := n - 1 - j
		b.gr[t] = h * real(w)
		b.gi[t] = -h * imag(w) // conjugate: e^{+jω0·j}
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

// Reset restarts the stream at input index 0, keeping the window's storage.
func (b *BandDecimator) Reset() { b.buf, b.base, b.next = b.buf[:0], 0, 0 }

// Process consumes real samples, appends every newly computable complex
// baseband output to dst and returns the extended slice.
func (b *BandDecimator) Process(dst []complex128, x []float64) []complex128 {
	b.buf = append(b.buf, x...)
	end := b.base + len(b.buf)
	ri := b.next % len(b.rot) // advanced by wrap, not a per-output divide
	for k := b.next * b.m; k < end; k += b.m {
		i := k - b.base
		var sr, si float64
		if lo := i - b.hist; lo >= 0 {
			// Steady state: dense unrolled dot over the full window.
			win := b.buf[lo : i+1]
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
			sr, si = sr0+sr1, si0+si1
		} else {
			// Stream head: taps reaching before input 0 read zeros.
			for t := -lo; t <= b.hist; t++ {
				v := b.buf[lo+t]
				sr += v * b.gr[t]
				si += v * b.gi[t]
			}
		}
		if b.quad != nil {
			switch b.quad[ri] {
			case 0:
				dst = append(dst, complex(sr, si))
			case 1:
				dst = append(dst, complex(si, -sr))
			case 2:
				dst = append(dst, complex(-sr, -si))
			default:
				dst = append(dst, complex(-si, sr))
			}
		} else {
			w := b.rot[ri]
			dst = append(dst, complex(sr*real(w)-si*imag(w), sr*imag(w)+si*real(w)))
		}
		if ri++; ri == len(b.rot) {
			ri = 0
		}
		b.next++
	}
	// Drop inputs the next output can no longer reach.
	if drop := b.next*b.m - b.hist - b.base; drop > 0 {
		if drop > len(b.buf) {
			drop = len(b.buf)
		}
		n := copy(b.buf, b.buf[drop:])
		b.buf = b.buf[:n]
		b.base += drop
	}
	return dst
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

	// Sliding input window; buf[0] is absolute input index base.
	buf  []complex128
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
	h := &HalfBandDecimator{center: taps[c], c: c, hist: n - 1}
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

// Factor returns the decimation factor, always 2.
func (h *HalfBandDecimator) Factor() int { return 2 }

// Reset restarts the stream at input index 0, keeping the window's storage.
func (h *HalfBandDecimator) Reset() { h.buf, h.base, h.next = h.buf[:0], 0, 0 }

// Process consumes complex samples, appends every newly computable output
// to dst and returns the extended slice.
func (h *HalfBandDecimator) Process(dst []complex128, x []complex128) []complex128 {
	h.buf = append(h.buf, x...)
	end := h.base + len(h.buf)
	for k := h.next * 2; k < end; k += 2 {
		i := k - h.base
		var sr, si float64
		if lo := i - h.hist; lo >= 0 {
			// Steady state: center plus symmetric wing pairs, two pairs per
			// iteration so each component's add chain splits across two
			// accumulators instead of serializing on FP-add latency.
			win := h.buf[lo : i+1]
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
				cv := h.buf[cpos]
				sr = h.center * real(cv)
				si = h.center * imag(cv)
			}
			for t, wv := range h.wing {
				d := 2*t + 1
				if j := cpos - d; j >= 0 {
					v := h.buf[j]
					sr += wv * real(v)
					si += wv * imag(v)
				}
				if j := cpos + d; j >= 0 {
					v := h.buf[j]
					sr += wv * real(v)
					si += wv * imag(v)
				}
			}
		}
		dst = append(dst, complex(sr, si))
		h.next++
	}
	// Drop inputs the next output can no longer reach.
	if drop := h.next*2 - h.hist - h.base; drop > 0 {
		if drop > len(h.buf) {
			drop = len(h.buf)
		}
		n := copy(h.buf, h.buf[drop:])
		h.buf = h.buf[:n]
		h.base += drop
	}
	return dst
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
