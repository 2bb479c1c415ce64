package dsp

import (
	"fmt"
	"math"
	"sync"
)

// Plan4 is the power-of-two complex FFT: a radix-4 decimation-in-time
// transform over precomputed digit-reversal and twiddle tables. A radix-2
// transform makes log2(n) full passes over the data; at the coarse
// correlator's block sizes the working set falls out of L1 and those passes
// are memory-bound, so halving the pass count by combining four sub-DFTs
// per butterfly buys ~30% over radix 2 even though the flop count barely
// moves. When log2(n) is odd the transform runs one radix-2 stage last,
// over the full block, where it costs a single extra pass.
//
// Beyond the in-place Forward/Inverse pair, ForwardFrom transforms a
// read-only source into a destination for overlap-save. It stages its
// input in natural order and runs the in-place transform, as the
// correlators' product sums do before their inverse: those then stream
// their cold delay-line spectra sequentially, where a gather fused into
// the first butterfly stage would read them in digit-reversed order
// (DESIGN.md §4).
//
// The band-decimated detector's partitioned correlator (cxcorr.go), the
// power-of-two FFT/IFFT and RealPlan's half-size transform all run here;
// other lengths run the mixed-radix plan (fftmixed.go). A Plan4 is
// immutable after construction, cached per size, and safe for concurrent
// use.
type Plan4 struct {
	n int
	// The digit-reversal permutation x[i] ← x[perm[i]] as sequential
	// transpositions. The mixed-radix reversal (base-4 digits, one base-2
	// digit when log2(n) is odd) is not an involution, so unlike a
	// bit-reversal the pairs must be applied in order: swapping
	// (i0,i1),(i1,i2),… along each cycle realizes it.
	pairs []int32
	// w[k] = exp(-2πik/n) for k < 3n/4, the highest index the radix-4
	// butterflies reach (3·stride·(quarter−1)). The inverse conjugates
	// each twiddle as it loads it: negating the imaginary part is exact,
	// so its products are bit-identical to those of a stored conj table.
	w []complex128
}

var plan4Cache sync.Map // int -> *Plan4

// Plan4For returns the shared radix-4 plan for a power-of-two size n. All
// callers of the same size receive the same immutable plan.
func Plan4For(n int) *Plan4 {
	if p, ok := plan4Cache.Load(n); ok {
		return p.(*Plan4)
	}
	if !isPow2(n) {
		panic(fmt.Sprintf("dsp: Plan4For size %d is not a power of two", n))
	}
	p, _ := plan4Cache.LoadOrStore(n, newPlan4(n))
	return p.(*Plan4)
}

func newPlan4(n int) *Plan4 {
	p := &Plan4{n: n}
	if n < 2 {
		return p
	}
	p.w = make([]complex128, 3*n/4)
	for k := range p.w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.w[k] = complex(c, s)
	}
	// Digit-reversal for the stage order transform uses: radix-4 stages
	// from size 1 up, then one radix-2 stage when log2(n) is odd. Peeling
	// base-4 digits first matches that order.
	perm := make([]int32, n)
	for i := 0; i < n; i++ {
		j, rem, m := 0, i, n
		for m > 1 {
			if m%4 == 0 {
				j = j*4 + rem&3
				rem >>= 2
				m >>= 2
			} else {
				j = j*2 + rem&1
				rem >>= 1
				m >>= 1
			}
		}
		perm[i] = int32(j)
	}
	seen := make([]bool, n)
	for i := range perm {
		if seen[i] || int(perm[i]) == i {
			continue
		}
		at := int32(i)
		for {
			seen[at] = true
			nxt := perm[at]
			if seen[nxt] {
				break
			}
			p.pairs = append(p.pairs, at, nxt)
			at = nxt
		}
	}
	return p
}

// Forward computes the in-place unscaled DFT of x. len(x) must equal the
// plan size.
func (p *Plan4) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place unscaled conjugate (inverse) DFT of x;
// divide by Size() for the true inverse.
func (p *Plan4) Inverse(x []complex128) { p.transform(x, true) }

func (p *Plan4) transform(x []complex128, inverse bool) {
	CheckLen("plan4 transform input", len(x), p.n)
	n := p.n
	if n < 4 {
		if n == 2 {
			a, b := x[0], x[1]
			x[0], x[1] = a+b, a-b
		}
		return
	}
	for i := 0; i < len(p.pairs); i += 2 {
		a, b := p.pairs[i], p.pairs[i+1]
		x[a], x[b] = x[b], x[a]
	}
	// First radix-4 stage on adjacent quads: unit twiddles only.
	if inverse {
		for s := 0; s < n; s += 4 {
			a, b, c, d := x[s], x[s+1], x[s+2], x[s+3]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			jt3 := complex(imag(t3), -real(t3))
			x[s], x[s+1], x[s+2], x[s+3] = t0+t2, t1-jt3, t0-t2, t1+jt3
		}
	} else {
		for s := 0; s < n; s += 4 {
			a, b, c, d := x[s], x[s+1], x[s+2], x[s+3]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			jt3 := complex(-imag(t3), real(t3))
			x[s], x[s+1], x[s+2], x[s+3] = t0+t2, t1-jt3, t0-t2, t1+jt3
		}
	}
	p.tail(x, inverse)
}

// ForwardFrom computes the unscaled DFT of src into dst, leaving src
// untouched. dst and src must not alias.
func (p *Plan4) ForwardFrom(dst, src []complex128) {
	CheckLen("plan4 transform input", len(src), p.n)
	CheckLen("plan4 transform output", len(dst), p.n)
	copy(dst, src)
	p.transform(dst, false)
}

// plan4Leaf is the largest sub-block (complex128 elements) the recursion
// hands to the iterative stage loop: 1024 elements is 16 KiB, small enough
// that a leaf's stages all run against L1 instead of streaming the full
// transform through the cache once per stage.
const plan4Leaf = 1024

// tail runs the butterfly stages above the adjacent-quad first stage:
// radix-4 from size 4 up, then one radix-2 stage over the full block when
// log2(n) is odd. The radix-4 part recurses four-step style — blocks are
// contiguous and twiddles depend only on block length, so each quarter is
// finished in cache before the combining stage touches it — bottoming out
// in the iterative loop at plan4Leaf.
func (p *Plan4) tail(x []complex128, inverse bool) {
	n := p.n
	n4 := n
	if logOdd(n) {
		n4 = n / 2
		p.fourStep(x[:n4], inverse)
		p.fourStep(x[n4:], inverse)
	} else {
		p.fourStep(x, inverse)
	}
	if n4 < n {
		// Odd log2(n): one radix-2 stage over the full block closes out.
		wt := p.w[:n/2]
		half := n / 2
		a, b := x[0], x[half]
		x[0], x[half] = a+b, a-b
		if inverse {
			for k := 1; k < half; k++ {
				w := wt[k]
				b := x[k+half] * complex(real(w), -imag(w))
				a := x[k]
				x[k], x[k+half] = a+b, a-b
			}
		} else {
			for k := 1; k < half; k++ {
				b := x[k+half] * wt[k]
				a := x[k]
				x[k], x[k+half] = a+b, a-b
			}
		}
	}
}

// logOdd reports whether log2(n) is odd for a power-of-two n ≥ 1.
func logOdd(n int) bool {
	odd := false
	for n > 1 {
		odd = !odd
		n >>= 1
	}
	return odd
}

// fourStep finishes the radix-4 sub-transform of a contiguous block whose
// first (adjacent-quad) stage has already run. len(x) must be a power of
// four times the first stage's 4.
func (p *Plan4) fourStep(x []complex128, inverse bool) {
	L := len(x)
	if L <= plan4Leaf {
		p.stagesFrom(x, inverse, 4)
		return
	}
	q := L / 4
	p.fourStep(x[:q], inverse)
	p.fourStep(x[q:2*q], inverse)
	p.fourStep(x[2*q:3*q], inverse)
	p.fourStep(x[3*q:], inverse)
	p.stagesFrom(x, inverse, q)
}

// stagesFrom runs the radix-4 stages from size minSize up over the block x
// (twiddle strides come from the plan size, so x may be any aligned
// sub-block). The loops are duplicated per direction: the inverse
// conjugates the twiddles as it loads them and flips the ±j rotation, and
// folding either into the forward loop costs measurably in the hot path.
func (p *Plan4) stagesFrom(x []complex128, inverse bool, minSize int) {
	n := len(x)
	wt := p.w
	size := minSize
	for ; size<<2 <= n; size <<= 2 {
		quarter := size
		stride := p.n / (size << 2)
		for start := 0; start < n; start += size << 2 {
			// First butterfly of the block: unit twiddles only.
			a := x[start]
			b := x[start+quarter]
			c := x[start+2*quarter]
			d := x[start+3*quarter]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			jt3 := complex(-imag(t3), real(t3))
			if inverse {
				jt3 = -jt3
			}
			x[start] = t0 + t2
			x[start+quarter] = t1 - jt3
			x[start+2*quarter] = t0 - t2
			x[start+3*quarter] = t1 + jt3
			w1i, w2i, w3i := stride, 2*stride, 3*stride
			if inverse {
				for k := start + 1; k < start+quarter; k++ {
					w1, w2, w3 := wt[w1i], wt[w2i], wt[w3i]
					w1 = complex(real(w1), -imag(w1))
					w2 = complex(real(w2), -imag(w2))
					w3 = complex(real(w3), -imag(w3))
					a := x[k]
					b := x[k+quarter] * w1
					c := x[k+2*quarter] * w2
					d := x[k+3*quarter] * w3
					t0, t1 := a+c, a-c
					t2, t3 := b+d, b-d
					jt3 := complex(imag(t3), -real(t3))
					x[k] = t0 + t2
					x[k+quarter] = t1 - jt3
					x[k+2*quarter] = t0 - t2
					x[k+3*quarter] = t1 + jt3
					w1i += stride
					w2i += 2 * stride
					w3i += 3 * stride
				}
			} else {
				for k := start + 1; k < start+quarter; k++ {
					w1, w2, w3 := wt[w1i], wt[w2i], wt[w3i]
					a := x[k]
					b := x[k+quarter] * w1
					c := x[k+2*quarter] * w2
					d := x[k+3*quarter] * w3
					t0, t1 := a+c, a-c
					t2, t3 := b+d, b-d
					jt3 := complex(-imag(t3), real(t3))
					x[k] = t0 + t2
					x[k+quarter] = t1 - jt3
					x[k+2*quarter] = t0 - t2
					x[k+3*quarter] = t1 + jt3
					w1i += stride
					w2i += 2 * stride
					w3i += 3 * stride
				}
			}
		}
	}
}
