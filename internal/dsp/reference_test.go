package dsp

// The textbook band-decimation chain — mix down, then low-pass and
// downsample — that BandDecimator and HalfBandDecimator fuse. Nothing in
// production runs it; the front-end tests and benchmarks compare against
// it.

// refMixer multiplies a real stream by a QuadOsc, tracking the absolute
// sample index across calls.
type refMixer struct {
	osc *QuadOsc
	n   int
}

func newRefMixer(freq, rate int) *refMixer { return &refMixer{osc: NewQuadOsc(freq, rate)} }

// MixDown appends x[i]·e^{-jω·(n+i)} to dst, where n is the running count
// of samples already mixed, and returns the extended slice.
func (m *refMixer) MixDown(dst []complex128, x []float64) []complex128 {
	for _, v := range x {
		w := m.osc.Factor(m.n)
		dst = append(dst, complex(v*real(w), v*imag(w)))
		m.n++
	}
	return dst
}

// Decimator low-pass filters and downsamples a complex stream by an
// integer factor, evaluating the FIR only at retained output positions
// (polyphase operation: len(taps)/D multiply-adds per input sample instead
// of len(taps)). Taps are real — the band-decimated marker front-end
// filters a heterodyned signal whose I and Q legs share one low-pass.
//
// Zero coefficients are skipped entirely. That matters because the marker
// chain decimates through half-band stages (cutoff at a quarter of the
// stage's input rate), whose windowed-sinc designs have every second tap
// exactly zero: the skip halves the filter work again.
//
// Output m is the causal convolution sampled at input index m·D:
//
//	y[m] = Σ_j h[j] · x[m·D − j],   x[k<0] = 0
//
// Both the mic stream and the correlation template run through identical
// chains, so the chains' group delays cancel and a decimated-domain
// correlation lag τ maps back to full-rate sample τ·D exactly.
//
// The detector's front-end runs the specialised BandDecimator and
// HalfBandDecimator; Decimator is the general form their tests compare
// them against.
type Decimator struct {
	d    int
	hist int // inputs of lookback a retained output needs: len(taps)-1

	// Nonzero taps as (lookback offset, coefficient) pairs.
	offs []int32
	taps []float64

	// Sliding input window; buf[0] is absolute input index base.
	buf  []complex128
	base int
	next int // next absolute output index to emit
}

// NewDecimator builds a decimator with the given factor and FIR taps
// (e.g. from LowPass). The taps slice is read once and not retained.
func NewDecimator(factor int, taps []float64) *Decimator {
	if factor < 1 {
		panic("dsp: Decimator factor must be ≥ 1")
	}
	if len(taps) == 0 {
		panic("dsp: Decimator needs at least one tap")
	}
	c := &Decimator{d: factor, hist: len(taps) - 1}
	for j, h := range taps {
		if h == 0 {
			continue
		}
		c.offs = append(c.offs, int32(j))
		c.taps = append(c.taps, h)
	}
	return c
}

// Process consumes x, appends every newly computable output to dst and
// returns the extended slice. Chunk boundaries never change the result:
// outputs depend only on absolute input positions. With a dst whose
// capacity covers the result it allocates nothing beyond the internal
// history window, which reaches a fixed size and stays there.
func (c *Decimator) Process(dst []complex128, x []complex128) []complex128 {
	c.buf = append(c.buf, x...)
	end := c.base + len(c.buf) // absolute input frontier
	for k := c.next * c.d; k < end; k += c.d {
		i := k - c.base
		var sr, si float64
		if k >= c.hist {
			// Steady state: the full lookback window is in buf.
			for t, off := range c.offs {
				v := c.buf[i-int(off)]
				h := c.taps[t]
				sr += real(v) * h
				si += imag(v) * h
			}
		} else {
			// Stream head: taps reaching before input 0 read zeros.
			for t, off := range c.offs {
				j := i - int(off)
				if j < 0 {
					continue
				}
				v := c.buf[j]
				h := c.taps[t]
				sr += real(v) * h
				si += imag(v) * h
			}
		}
		dst = append(dst, complex(sr, si))
		c.next++
	}
	// Drop inputs the next output can no longer reach.
	if drop := c.next*c.d - c.hist - c.base; drop > 0 {
		if drop > len(c.buf) {
			drop = len(c.buf)
		}
		n := copy(c.buf, c.buf[drop:])
		c.buf = c.buf[:n]
		c.base += drop
	}
	return dst
}

// CrossCorrelateComplex computes C[t] = Σ_i x[t+i]·conj(w[i]) for
// t = 0..len(x)-len(w) directly: the reference the correlator tests hold
// the FFT correlators to.
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
