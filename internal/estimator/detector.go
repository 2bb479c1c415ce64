package estimator

import (
	"math"
	"sync"

	"ekho/internal/audio"
	"ekho/internal/dsp"
	"ekho/internal/pn"
)

// Streaming marker detection, coarse to fine.
//
// IncrementalDetector is the streaming form of the Eq. 3-7 pipeline: audio
// arrives in arbitrary chunks and confirmed detections are emitted as soon
// as the equations' lookaheads allow (about one marker interval after the
// marker starts, dominated by the Eq. 7 companion requirement). The batch
// DetectMarkers pipeline — the equations verbatim at the full 48 kHz rate —
// is its oracle: TestTwoStageParity holds the two to the same detection set
// within ±1 sample. Differences from the batch pipeline are limited to
// causality: the Eq. 4 silence floor uses the running (not whole-file)
// correlation RMS, and a marker's first appearance can only confirm once
// its companion one interval away has been seen.
//
// Ekho's markers occupy 6-12 kHz only (pn.BandLowHz..BandHighHz), so the
// detector never correlates at the full rate against the 48000-sample
// template; it exploits the band-limited structure in two stages.
//
// Coarse stage. The mic stream is multiplied by e^{-jω0·n} (ω0 at the
// 9 kHz band center — exact, the oscillator period is 16 samples), which
// translates the marker band to complex baseband ±3 kHz. A fused
// heterodyne/decimate front-end brings the rate down by D = coarseFactor
// (to 6 kHz), and an overlap-save ComplexCorrelator correlates against the
// identically-processed template — D× fewer lags against a D× shorter
// template. Writing the full-rate analytic correlation as C(t), the
// correlation of the mixed signals satisfies
//
//	C_dec[τ] = e^{-jω0·D·τ} · A(τ),   A(τ) ≈ C(τ·D)/D (filter-shaped),
//
// because both legs pass through the same filter chain: group delays
// cancel and coarse lag τ maps to full-rate sample τ·D exactly. |C_dec| is
// carrier-free, so the Eq. 4-6 peak logic runs on it unchanged with
// parameters scaled to the lag rate: S/D, β^D, ⌈δ/D⌉ — and a ½ weight on
// squared magnitudes in the power terms, which lands the coarse normalized
// envelope in the same σ units as the full-rate Z* (a narrowband real
// signal with envelope |C| has mean square |C|²/2), so θ transfers.
//
// Fine stage. A coarse candidate localizes the marker to ±(D/2) samples,
// plus up to a ~carrier half-cycle of skew between the envelope max and
// the real correlation's argmax. The refiner scores a contiguous span of
// lags around τ·D with exact 48 kHz template dot products under the same
// Eq. 4 normalization as the batch pipeline (den's baseline comes from the
// de-rotated baseband, calibrated into full-rate units; den *differences*
// between span lags come from the exact dots), growing the span whenever
// the argmax rides its edge — the sample-accurate position the
// compensator needs, at the cost of a dozen-odd 48000-MAC dots per
// detection instead of any full-rate streaming work. See refine for the
// numerics.
//
// Confirmation (Eq. 7 companion pairing) runs on the refined full-rate
// positions in peakConfirm.

const (
	// coarseFactor is the coarse stage's decimation factor D: the 6-12 kHz
	// marker band heterodyned to a 6 kHz complex baseband.
	coarseFactor = 8

	// refineRadius is the fine stage's search half-width around a coarse
	// candidate, in full-rate samples: 2·D covers the coarse stage's
	// localization error plus the carrier-phase skew.
	refineRadius = 2 * coarseFactor

	// coarseThetaScale relaxes the Eq. 6 threshold at the coarse stage. The
	// decimated envelope reads a few percent low against the full-rate Z*
	// (band-edge loss through the decimation chain), so the coarse scan
	// admits candidates slightly under θ and the fine stage re-applies the
	// threshold to its exact, calibrated score — threshold decisions then
	// track the full-rate Z* rather than the coarse approximation.
	coarseThetaScale = 0.9

	// coarsePowScale weights |C|² in the coarse Eq. 4 power terms: a
	// narrowband real signal of envelope |C| has mean square |C|²/2, so the
	// ½ lands the coarse normalization in the same σ units as Z*.
	coarsePowScale = 0.5

	// interpHalfWidth is the windowed-sinc half-width (taps per side) for
	// reconstructing the baseband correlation between decimated lags.
	interpHalfWidth = 8

	// czKeep is how many de-rotated lags behind the peak-scan frontier the
	// fine stage can still read: refineRadius/D of search plus the
	// interpolator's reach, with margin.
	czKeep = refineRadius/coarseFactor + interpHalfWidth + 4

	// feedChunk is the Feed size the buffers are pre-sized for: one 20 ms
	// frame, the unit every host feeds the detector in.
	feedChunk = audio.FrameSamples
)

// IncrementalDetector is the streaming marker detector; see the file
// comment for the pipeline.
type IncrementalDetector struct {
	cfg  Config
	mdec int // decimated template length

	// Full-rate audio retained for the fine stage; rec[0] is absolute
	// sample recBase.
	rec     []float64
	recBase int

	// osc is the band-center carrier e^{-jω0·t} the fine stage puts back
	// on the reconstructed baseband.
	osc *dsp.QuadOsc

	// Fused front-end: a modulated ÷(D/2) stage reading the real stream
	// directly, then a half-band ÷2.
	fastA  *dsp.BandDecimator
	fastB  *dsp.HalfBandDecimator
	mixBuf []complex128 // per-feed scratch between the two links

	// Decimated baseband; bb[0] is absolute decimated index bbBase.
	bb     []complex128
	bbBase int
	cNext  int // next absolute decimated lag to correlate
	corr   *dsp.ComplexCorrelator
	wdec   []complex128 // decimated template (shared, immutable)

	// De-rotated correlation A[τ] retained around the peak-scan frontier
	// for the fine stage's interpolation; cz[0] is absolute lag czBase.
	cz     []complex128
	czBase int

	// While a block is correlated, scanned and refined, cz and the scan's
	// z, zPrefix and env hold a whole block and live in lent, buffers
	// borrowed from dsp's free list; between blocks they hold short tails
	// in home, the session's own storage (see lend and settle).
	home, lent blockBufs

	// kern[p] interpolates A at fractional position m + p/D.
	kern [][]float64

	scan coarseScan
	conf peakConfirm

	refZt   []float64 // reconstructed Z̃ over the refinement window
	refPz   []float64 // prefix sums of Z̃²
	refBp   []float64 // prefix sums of the coarse block power (D/2)·|A|²
	refEx   []float64 // exact Z cache across the refinement window
	refExOk []bool    // which refEx entries hold a computed dot

	// Cumulative unit calibration between exact Z and the reconstruction,
	// accumulated at phase-0 lags only (where Z̃ carries no interpolation
	// error): gEx/gRec estimates the constant A-unit → Z-unit power ratio.
	gEx, gRec float64
}

// coarseKey identifies a decimated template: sequence seed and length. A
// checksum of the source samples guards against seed collisions (see dsp's
// template-spectrum cache for the same contract).
type coarseKey struct {
	seed   int64
	length int
}

type coarseEntry struct {
	sum  uint64
	wdec []complex128
}

var coarseTemplateCache sync.Map // coarseKey -> *coarseEntry

// bandCenterHz is the heterodyne frequency: the middle of the marker band.
func bandCenterHz() int { return int((pn.BandLowHz + pn.BandHighHz) / 2) }

// fastFrontEnd designs the fused two-link decimation chain: a
// BandDecimator folding the band-center mix into the ÷(D/2) stage (its
// stop band at the first alias fold, rOut − pass) and a half-band ÷2 to
// the final rate.
func fastFrontEnd() (*dsp.BandDecimator, *dsp.HalfBandDecimator) {
	const rate = audio.SampleRate
	bandHalf := (pn.BandHighHz - pn.BandLowHz) / 2
	m1 := coarseFactor / 2
	r1 := float64(rate) / float64(m1)
	pass1 := math.Min(bandHalf, 0.85*r1/2)
	stop1 := r1 - pass1
	// The first link tolerates a transition running ~15% past the fold
	// edge: only the outermost slice of the folded image lands in band,
	// and it arrives tens of dB down. The fine stage's exact dots are
	// unaffected; only the coarse gate sees the slightly higher noise
	// floor, inside the coarseThetaScale margin.
	taps1 := int(math.Ceil(2.6 * float64(rate) / (stop1 - pass1)))
	a := dsp.NewBandDecimator(bandCenterHz(), rate, m1,
		dsp.LowPass((pass1+stop1)/2, float64(rate), taps1).Taps)
	r2 := r1 / 2
	// The final link runs at the critical rate, so its transition band is
	// the tightest in the chain and dominates the front-end's tap budget;
	// passing 0.75·Nyquist rather than 0.85 trades a slightly earlier
	// roll-off (the template sees the identical response, so correlation
	// shape is unaffected) for ~40% fewer wing taps.
	pass2 := math.Min(bandHalf, 0.75*r2/2)
	stop2 := r2 - pass2
	taps2 := int(math.Ceil(3.3 * r1 / (stop2 - pass2)))
	b := dsp.NewHalfBandDecimator(dsp.LowPass((pass2+stop2)/2, r1, taps2).Taps)
	return a, b
}

// coarseTemplateFor returns the decimated complex template for seq, shared
// across sessions via the package cache.
func coarseTemplateFor(seq *pn.Sequence) []complex128 {
	key := coarseKey{seed: seq.Seed, length: seq.Len()}
	sum := dsp.ChecksumFloats(seq.Samples)
	if e, ok := coarseTemplateCache.Load(key); ok {
		ent := e.(*coarseEntry)
		if ent.sum == sum {
			return ent.wdec
		}
		return buildCoarseTemplate(seq)
	}
	ent := &coarseEntry{sum: sum, wdec: buildCoarseTemplate(seq)}
	if prev, loaded := coarseTemplateCache.LoadOrStore(key, ent); loaded {
		got := prev.(*coarseEntry)
		if got.sum == sum {
			return got.wdec
		}
	}
	return ent.wdec
}

// buildCoarseTemplate passes the template through a chain identical to the
// stream's, so the group delays cancel.
func buildCoarseTemplate(seq *pn.Sequence) []complex128 {
	a, b := fastFrontEnd()
	mid := a.Process(make([]complex128, 0, len(seq.Samples)/a.Factor()+1), seq.Samples)
	w := b.Process(make([]complex128, 0, len(mid)/2+1), mid)
	if mdec := decimatedLen(seq.Len()); len(w) > mdec {
		w = w[:mdec]
	}
	return w
}

// decimatedLen is ⌈n/D⌉: the coarse-rate length of n full-rate samples.
func decimatedLen(n int) int { return (n + coarseFactor - 1) / coarseFactor }

// coarseSegmentLen picks the coarse correlator's FFT size for a decimated
// template of mdec samples: the smallest power of two that still yields at
// least mdec/4 lags per block. The segment sets the block cadence — how
// often a session's detector can speak, so its first-measurement latency —
// and the full-rate audio each session retains for the fine stage; a
// shorter segment buys both at a few more transform flops per lag. The
// mdec/4 floor keeps a template just under a power of two from paying one
// FFT pair per handful of lags. For the 6000-sample decimated marker this
// is 8192 points: 2193 lags (0.37 s) per block, against 1.73 s for the
// 16384 that twice the template would give. DESIGN.md §12 has the table.
func coarseSegmentLen(mdec int) int { return dsp.NextPow2(mdec + max(mdec/4, 1)) }

// interpKernel tabulates a windowed-sinc interpolator for the D
// fractional phases p/D, each row spanning offsets
// [-interpHalfWidth+1, interpHalfWidth] and normalized to unit DC gain.
// Phase 0 is the exact identity.
func interpKernel() [][]float64 {
	h := interpHalfWidth
	kern := make([][]float64, coarseFactor)
	for p := range kern {
		row := make([]float64, 2*h)
		frac := float64(p) / coarseFactor
		var sum float64
		for k := range row {
			x := float64(k-(h-1)) - frac
			var v float64
			if x == 0 {
				v = 1
			} else {
				v = math.Sin(math.Pi*x) / (math.Pi * x)
			}
			// Hamming window over the kernel span keeps the
			// near-Nyquist response usable at 16 taps.
			v *= 0.54 + 0.46*math.Cos(math.Pi*x/float64(h))
			row[k] = v
			sum += v
		}
		for k := range row {
			row[k] /= sum
		}
		kern[p] = row
	}
	return kern
}

// NewIncrementalDetector returns a streaming detector for the config.
// cfg.Seq is required: without a template there is nothing to detect, so a
// nil Seq panics rather than building a detector that can never fire.
func NewIncrementalDetector(cfg Config) *IncrementalDetector {
	c := cfg.withDefaults()
	if c.Seq == nil {
		panic("estimator: NewIncrementalDetector needs Config.Seq (the PN marker sequence)")
	}
	mdec := decimatedLen(c.Seq.Len())
	sDec := max(c.NormWindow/coarseFactor, 1)
	dDec := decimatedLen(c.Delta)
	d := &IncrementalDetector{
		cfg:  c,
		mdec: mdec,
		osc:  dsp.NewQuadOsc(bandCenterHz(), audio.SampleRate),
		wdec: coarseTemplateFor(c.Seq),
		kern: interpKernel(),
		scan: coarseScan{
			normWindow: sDec,
			beta2:      math.Pow(c.Beta, 2*coarseFactor),
			theta2:     (c.Theta * coarseThetaScale) * (c.Theta * coarseThetaScale),
			delta:      dDec,
		},
		conf: peakConfirm{interval: c.IntervalSamples, delta: c.Delta},
	}
	d.fastA, d.fastB = fastFrontEnd()
	// The conjugate template spectrum is shared across sessions, keyed by
	// the PN seed.
	d.corr = dsp.NewComplexCorrelatorShared(d.wdec, coarseSegmentLen(mdec), uint64(c.Seq.Seed))
	// Size every buffer to the longest it gets when fed one frame at a time,
	// so none regrows mid-stream: a regrown buffer leaves its outgrown
	// storage behind as garbage in every session the hub admits. Larger
	// feeds still work; their buffers grow once. The block-sized arrays are
	// sized to their tails here and borrowed whole per block (lend).
	// DESIGN.md §12 tabulates the budget.
	n := d.corr.SegmentLen()
	czTail, zTail, envTail := d.tailLens()
	// rec peaks on the feed that completes a block: n decimated samples
	// past the correlation frontier, which leads the peak-scan frontier by
	// sDec+dDec lags, which trimRec trails by 2·refineRadius samples.
	d.rec = make([]float64, 0, (n+sDec+dDec)*coarseFactor+2*refineRadius+feedChunk)
	d.bb = make([]complex128, 0, n+feedChunk/coarseFactor)
	d.mixBuf = make([]complex128, 0, feedChunk/(coarseFactor/2)+1)
	d.cz = make([]complex128, 0, czTail)
	d.scan.z = make([]float64, 0, zTail)
	d.scan.zPrefix = make([]float64, 0, zTail+1)
	d.scan.env = make([]float64, 0, envTail)
	d.scan.cands = make([]scanPeak, 0, 8)
	d.conf.pending = make([]pendingPeak, 0, 8)
	d.refZt = make([]float64, 0, 4*refineRadius+2*coarseFactor+8)
	d.refPz = make([]float64, 0, 4*refineRadius+2*coarseFactor+9)
	d.refBp = make([]float64, 0, sDec+8)
	d.refEx = make([]float64, 0, 2*refineRadius+2)
	d.refExOk = make([]bool, 0, 2*refineRadius+2)
	return d
}

// Feed appends recording samples and returns newly confirmed detections.
// Detection.Sample is the absolute sample index since the first Feed.
func (d *IncrementalDetector) Feed(samples []float64) []Detection {
	d.rec = append(d.rec, samples...)
	// Heterodyne and decimate the new audio down to complex baseband: the
	// modulated ÷(D/2) stage reads the real samples directly, so no
	// full-rate complex stream is ever materialized.
	mid := d.fastA.Process(d.mixBuf[:0], samples)
	d.mixBuf = mid[:0]
	d.bb = d.fastB.Process(d.bb, mid)
	d.correlate(false)
	d.advance()
	return d.conf.take()
}

// Flush processes everything buffered regardless of batch thresholds and
// returns any final detections (peaks whose companions were already seen).
func (d *IncrementalDetector) Flush() []Detection {
	d.correlate(true)
	d.advance()
	return d.conf.take()
}

// Reset returns the detector to its just-constructed state, an empty
// stream starting at sample 0, keeping every buffer's storage: a resync
// allocates nothing.
func (d *IncrementalDetector) Reset() {
	d.fastA.Reset()
	d.fastB.Reset()
	d.rec, d.recBase = d.rec[:0], 0
	d.bb, d.bbBase, d.cNext = d.bb[:0], 0, 0
	d.cz, d.czBase = d.cz[:0], 0
	s := &d.scan
	*s = coarseScan{
		normWindow: s.normWindow, beta2: s.beta2, theta2: s.theta2, delta: s.delta,
		z: s.z[:0], zPrefix: s.zPrefix[:0], env: s.env[:0], cands: s.cands[:0],
	}
	d.conf = peakConfirm{interval: d.conf.interval, delta: d.conf.delta, pending: d.conf.pending[:0]}
	d.gEx, d.gRec = 0, 0
}

// correlate extends the coarse correlation as far as the decimated stream
// allows; Flush computes the sub-block tail directly. The lags are
// appended to cz, borrowing the block arrays first (lend).
func (d *IncrementalDetector) correlate(force bool) {
	n := d.corr.SegmentLen()
	for d.bbBase+len(d.bb)-d.cNext >= n {
		d.lend()
		off := d.cNext - d.bbBase
		at := len(d.cz)
		d.cz = d.corr.AppendCorrelate(d.cz, d.bb[off:off+n])
		d.integrate(at)
		d.dropCoveredBB()
	}
	if !force {
		return
	}
	bbEnd := d.bbBase + len(d.bb)
	if avail := bbEnd - d.mdec + 1 - d.cNext; avail > 0 {
		d.lend()
		at := len(d.cz)
		d.cz = append(d.cz, dsp.CrossCorrelateComplex(d.bb[d.cNext-d.bbBase:], d.wdec)...)
		d.integrate(at)
		d.dropCoveredBB()
	}
}

// integrate takes in the raw coarse lags appended to cz past index at: the
// carrier e^{-jω0·D·τ} is removed in place (A[τ] is what the fine stage
// interpolates) and the squared magnitudes feed the squared-domain Eq. 4-6
// scan. ω0·D is 3π per lag (9 kHz · 8 / 48 kHz = 3/2 turns), so the
// de-rotation is the sign (−1)^τ — which the magnitudes never see.
func (d *IncrementalDetector) integrate(at int) {
	for i := at; i < len(d.cz); i++ {
		v := d.cz[i]
		d.scan.push(d.cNext, real(v)*real(v)+imag(v)*imag(v))
		if d.cNext&1 == 1 {
			d.cz[i] = -v
		}
		d.cNext++
	}
}

// blockBufs are the arrays that grow by a whole block while it is
// correlated, scanned and refined, and shrink to short tails once the
// frontiers have moved past it.
type blockBufs struct {
	cz              []complex128
	z, zPrefix, env []float64
}

// tailLens returns the lengths cz, z and env keep between blocks, once
// advance's trims have run: cz reaches czKeep behind the peak-scan
// frontier, which trails the correlation frontier by S/D+δ/D; z holds the
// live normalization window plus the S/D−1 lags still short of a full one;
// env holds δ/D+2 behind the peak-scan frontier plus its δ/D+1 lookahead.
// zPrefix is one longer than z.
func (d *IncrementalDetector) tailLens() (cz, z, env int) {
	sDec, dDec := d.scan.normWindow, d.scan.delta
	return czKeep + sDec + dDec, 2*sDec - 1, 2*dDec + 3
}

// lend moves the block arrays' tails into buffers borrowed from dsp's free
// list, sized for one block past them (cz for a whole segment, which the
// correlator's inverse transform runs in). Idempotent until settle.
func (d *IncrementalDetector) lend() {
	if d.lent.cz != nil {
		return
	}
	czTail, zTail, envTail := d.tailLens()
	n, step := d.corr.SegmentLen(), d.corr.Step()
	s := &d.scan
	d.lent = blockBufs{
		cz:      dsp.BorrowComplex(czTail + n),
		z:       dsp.BorrowFloats(zTail + step),
		zPrefix: dsp.BorrowFloats(zTail + 1 + step),
		env:     dsp.BorrowFloats(envTail + step),
	}
	d.home = blockBufs{cz: d.cz, z: s.z, zPrefix: s.zPrefix, env: s.env}
	d.cz = append(d.lent.cz[:0], d.cz...)
	s.z = append(d.lent.z[:0], s.z...)
	s.zPrefix = append(d.lent.zPrefix[:0], s.zPrefix...)
	s.env = append(d.lent.env[:0], s.env...)
}

// settle copies the trimmed tails back into the session's own storage and
// returns the borrowed buffers. A no-op unless lend ran.
func (d *IncrementalDetector) settle() {
	if d.lent.cz == nil {
		return
	}
	s := &d.scan
	d.cz = append(d.home.cz[:0], d.cz...)
	s.z = append(d.home.z[:0], s.z...)
	s.zPrefix = append(d.home.zPrefix[:0], s.zPrefix...)
	s.env = append(d.home.env[:0], s.env...)
	dsp.ReturnComplex(d.lent.cz)
	dsp.ReturnFloats(d.lent.z)
	dsp.ReturnFloats(d.lent.zPrefix)
	dsp.ReturnFloats(d.lent.env)
	d.home, d.lent = blockBufs{}, blockBufs{}
}

// dropCoveredBB discards decimated samples already consumed by the coarse
// frontier (the next block still needs the template-length overlap).
func (d *IncrementalDetector) dropCoveredBB() {
	if drop := d.cNext - d.bbBase; drop > 0 {
		if drop > len(d.bb) {
			drop = len(d.bb)
		}
		n := copy(d.bb, d.bb[drop:])
		d.bb = d.bb[:n]
		d.bbBase += drop
	}
}

// advance runs the scaled Eq. 4-6 scan, refines each coarse candidate to
// a full-rate sample and confirms via Eq. 7 (peakConfirm).
func (d *IncrementalDetector) advance() {
	d.scan.advance()
	for _, p := range d.scan.cands {
		if det, ok := d.refine(p); ok {
			d.conf.add(det)
		}
	}
	d.scan.cands = d.scan.cands[:0]
	d.conf.confirm(d.scan.peakNext * coarseFactor)
	d.trimCZ()
	d.trimRec()
	d.settle()
}

// reconstructA interpolates the de-rotated baseband correlation Ã at the
// full-rate lag t from the retained decimated samples.
func (d *IncrementalDetector) reconstructA(t int) (ar, ai float64) {
	m := t / coarseFactor
	ph := t - m*coarseFactor
	row := d.kern[ph]
	base := m - (interpHalfWidth - 1) - d.czBase
	for k, kv := range row {
		j := base + k
		if j < 0 || j >= len(d.cz) {
			continue
		}
		a := d.cz[j]
		ar += real(a) * kv
		ai += imag(a) * kv
	}
	return ar, ai
}

// blockPower returns the coarse estimate of the correlation power summed
// over one decimated block: Σ_{k=τD}^{(τ+1)D-1} Z[k]² ≈ (D/2)·|A[τ]|². The
// second-harmonic term cancels exactly over a block (2ω0·D spans whole
// turns), so the estimate only errs by A's variation within the block.
func (d *IncrementalDetector) blockPower(tau int) float64 {
	j := tau - d.czBase
	if j < 0 {
		j = 0
	}
	if j >= len(d.cz) {
		j = len(d.cz) - 1
	}
	a := d.cz[j]
	return 0.5 * coarseFactor * (real(a)*real(a) + imag(a)*imag(a))
}

// refine recovers the sample-accurate marker position for one coarse
// candidate. The batch pipeline's peak is the argmax of the
// *normalized* correlation Z*[t] = |Z[t]|/den[t] (Eq. 4), and den's
// trailing window [t, t+S) drops steeply as its left edge crosses the
// peak cluster — the argmax typically sits a half carrier cycle after the
// raw |Z| maximum, so matching the batch oracle to ±1 sample requires
// scoring candidates with the same normalization.
//
// The baseband is critically sampled (±3 kHz at rate·D⁻¹ = 6 kHz), so a
// per-sample reconstruction Z̃[t] from the decimated correlation is only
// reliable at phase-0 lags — between them the interpolation error runs to
// tens of percent and cannot rank carrier extrema. The refiner therefore
// scores a small *contiguous* span of lags around the coarse position with
// exact 48 kHz template dots: numerators are exact, and the den drop
// between any two span lags — the decisive quantity — telescopes out of
// the exact span power alone. The reconstruction supplies only the den
// baseline (per-sample Z̃² to the span's right edge, then (D/2)·|A[τ]|²
// block sums), bridged into full-rate units by a per-call least-squares
// calibration over the span; any residual baseline error is common to
// every candidate and cancels to first order in the score ratios. If the
// argmax lands at a span edge the span grows and rescoring repeats (cached
// dots are not recomputed), so the winner is always interior or pinned at
// the window bound.
//
// The refined score is the full-rate Z* estimate in σ units, so the
// Eq. 6 threshold is re-applied here exactly where the batch pipeline
// applies it; the coarse stage's relaxed gate only selects which lags get
// refined.
func (d *IncrementalDetector) refine(p scanPeak) (Detection, bool) {
	t0 := p.pos * coarseFactor
	lo := t0 - refineRadius
	if lo < 0 {
		lo = 0
	}
	hi := t0 + refineRadius
	L := d.cfg.Seq.Len()
	recEnd := d.recBase + len(d.rec)
	if m := recEnd - L; hi > m {
		hi = m
	}
	if lo < d.recBase {
		lo = d.recBase
	}
	if hi < lo {
		return Detection{Sample: t0, Strength: p.val}, p.val >= d.cfg.Theta
	}
	// Reconstruct Z̃ from lo through the end of the block containing
	// hi+fac, so every candidate's per-sample head [t, rEnd) is covered.
	mHead := hi/coarseFactor + 2
	rEnd := mHead * coarseFactor
	d.refZt = d.refZt[:0]
	d.refPz = append(d.refPz[:0], 0)
	for t := lo; t < rEnd; t++ {
		ar, ai := d.reconstructA(t)
		f := d.osc.Factor(t)
		// Z̃[t] = Re{conj(Factor(t))·Ã} — the exact carrier at t.
		zt := real(f)*ar + imag(f)*ai
		d.refZt = append(d.refZt, zt)
		d.refPz = append(d.refPz, d.refPz[len(d.refPz)-1]+zt*zt)
	}
	// Block-power prefix over the coarse lags covering the rest of the
	// normalization window, [mHead, mHead + S/D + 1].
	S := d.cfg.NormWindow
	nb := S/coarseFactor + 2
	d.refBp = append(d.refBp[:0], 0)
	for j := 0; j < nb; j++ {
		d.refBp = append(d.refBp, d.refBp[len(d.refBp)-1]+d.blockPower(mHead+j))
	}
	// denSum(t) = S·den²[t]: per-sample head to rEnd, whole blocks
	// beyond, and a proportional share of the final straddled block
	// (keeps den smooth in t rather than quantized to block boundaries).
	denSum := func(t int) float64 {
		sum := d.refPz[rEnd-lo] - d.refPz[t-lo]
		remain := S - (rEnd - t)
		whole := remain / coarseFactor
		if whole > nb-1 {
			whole = nb - 1
		}
		sum += d.refBp[whole]
		if fr := remain - whole*coarseFactor; fr > 0 && whole < nb {
			sum += float64(fr) / coarseFactor * (d.refBp[whole+1] - d.refBp[whole])
		}
		return sum
	}
	// Exact dot cache across the window; entries computed on demand as the
	// span grows.
	w := d.cfg.Seq.Samples
	win := hi - lo + 1
	d.refEx = d.refEx[:0]
	d.refExOk = d.refExOk[:0]
	for i := 0; i < win; i++ {
		d.refEx = append(d.refEx, 0)
		d.refExOk = append(d.refExOk, false)
	}
	exact := func(t int) float64 {
		i := t - lo
		if !d.refExOk[i] {
			// Four independent accumulators keep the 48000-MAC dot at the
			// load-port limit instead of the FP-add latency limit.
			seg := d.rec[t-d.recBase : t-d.recBase+L]
			ww := w[:len(seg)]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+3 < len(ww); k += 4 {
				s0 += seg[k] * ww[k]
				s1 += seg[k+1] * ww[k+1]
				s2 += seg[k+2] * ww[k+2]
				s3 += seg[k+3] * ww[k+3]
			}
			for ; k < len(ww); k++ {
				s0 += seg[k] * ww[k]
			}
			d.refEx[i] = (s0 + s1) + (s2 + s3)
			d.refExOk[i] = true
		}
		return d.refEx[i]
	}
	// exactRun fills the dot cache over [a, b]. A lone dot streams the
	// 48000-sample template and window through the cache and is memory-
	// bound, so runs of uncached adjacent lags are computed four at a time
	// in a single traversal — the four accumulators read a sliding
	// four-sample window of rec, amortizing the streaming cost that
	// dominates the single-lag form.
	exactRun := func(a, b int) {
		for t := a; t <= b; t++ {
			if d.refExOk[t-lo] {
				continue
			}
			r := t
			for r < b && !d.refExOk[r+1-lo] {
				r++
			}
			base := t
			for ; base+3 <= r; base += 4 {
				seg := d.rec[base-d.recBase : base-d.recBase+L+3]
				var a0, a1, a2, a3 float64
				for k := 0; k < len(w); k++ {
					v := w[k]
					a0 += v * seg[k]
					a1 += v * seg[k+1]
					a2 += v * seg[k+2]
					a3 += v * seg[k+3]
				}
				i := base - lo
				d.refEx[i], d.refEx[i+1], d.refEx[i+2], d.refEx[i+3] = a0, a1, a2, a3
				d.refExOk[i], d.refExOk[i+1], d.refExOk[i+2], d.refExOk[i+3] = true, true, true, true
			}
			for ; base <= r; base++ {
				exact(base)
			}
			t = r
		}
	}
	// Initial span: the interpolated coarse peak localizes the envelope max
	// to a few samples, and the normalization skews the argmax roughly half
	// a carrier cycle (≈2.7 samples) later, so the span leans right of t0.
	// Measured over the parity suite the winner lands in [t0−3, t0+4] with
	// the mode at +3; this span keeps that mode interior while the adaptive
	// extension below covers the tails.
	s0 := t0 - coarseFactor/4
	if s0 < lo {
		s0 = lo
	}
	s1 := t0 + coarseFactor/2 + 1
	if s1 > hi {
		s1 = hi
	}
	if s1 < s0 {
		s0, s1 = lo, hi
	}
	// Unit calibration: g² bridges the A-unit den baseline into full-rate
	// Z units. Only phase-0 lags contribute — their Z̃ reads the exact
	// grid A[τ], so Zex²/Z̃² there is the pure unit ratio, free of the
	// interpolation attenuation that biases the other phases (the den
	// baseline is dominated by exact-grid block powers, so an attenuated
	// calibration would inflate it and systematically depress the score).
	// The ratio is a constant of the decimation chain; it accumulates
	// across calls for stability.
	var sumEx, sumRec float64
	exactRun(s0, s1)
	for t := s0; t <= s1; t++ {
		ze := d.refEx[t-lo]
		zr := d.refZt[t-lo]
		sumEx += ze * ze
		sumRec += zr * zr
		if t%coarseFactor == 0 {
			d.gEx += ze * ze
			d.gRec += zr * zr
		}
	}
	best, bestScore := t0, -1.0
	for {
		exactRun(s0, s1)
		g2 := 1.0
		if d.gRec > 0 && d.gEx > 0 {
			g2 = d.gEx / d.gRec
		} else if sumRec > 0 && sumEx > 0 {
			g2 = sumEx / sumRec
		}
		// Score every span lag: den²·S = g²·(baseline − its span part
		// [t, s1]) + exact span power. Inter-candidate den differences are
		// exact; the calibrated baseline is common mode.
		best, bestScore = t0, -1.0
		var exTail, recTail float64
		for t := s1; t >= s0; t-- {
			ze := d.refEx[t-lo]
			zr := d.refZt[t-lo]
			exTail += ze * ze
			recTail += zr * zr
			ds := g2*(denSum(t)-recTail) + exTail
			if ds <= 0 {
				continue
			}
			zs := math.Abs(ze) / math.Sqrt(ds/float64(S))
			if zs > bestScore {
				best, bestScore = t, zs
			}
		}
		// Grow toward an edge-riding argmax so the emitted lag is an
		// interior winner (or pinned at the window bound).
		grew := false
		if best-s0 <= 1 && s0 > lo {
			if s0 -= coarseFactor / 2; s0 < lo {
				s0 = lo
			}
			grew = true
		}
		if s1-best <= 1 && s1 < hi {
			if s1 += coarseFactor / 2; s1 > hi {
				s1 = hi
			}
			grew = true
		}
		if !grew {
			break
		}
	}
	if bestScore < 0 {
		return Detection{Sample: t0, Strength: p.val}, p.val >= d.cfg.Theta
	}
	return Detection{Sample: best, Strength: bestScore}, bestScore >= d.cfg.Theta
}

// trimCZ drops de-rotated correlation history the fine stage can no
// longer need (future candidates sit at or past the peak-scan frontier).
// Like the other trims it cuts once per block: the frontier only moves
// when a block is scanned.
func (d *IncrementalDetector) trimCZ() {
	if cut := d.scan.peakNext - czKeep - d.czBase; cut > 0 {
		n := copy(d.cz, d.cz[cut:])
		d.cz = d.cz[:n]
		d.czBase += cut
	}
}

// trimRec drops full-rate audio behind every possible future refinement
// window. Each block moves the frontier by Step()·D ≈ 17.5k samples, so
// the cut is one copy per block of the retained span: the template-length
// overlap not yet correlated plus the scan's lag behind the correlation
// frontier, ≈ 53k samples whatever the segment length.
func (d *IncrementalDetector) trimRec() {
	cutoff := d.scan.peakNext*coarseFactor - refineRadius - 2*coarseFactor
	drop := cutoff - d.recBase
	if drop <= 0 {
		return
	}
	if drop > len(d.rec) {
		drop = len(d.rec)
	}
	n := copy(d.rec, d.rec[drop:])
	d.rec = d.rec[:n]
	d.recBase += drop
}

// coarseScan runs the Eq. 4-6 stages — running power normalization,
// peak-hold envelope and dominant-local-max candidate pick — over the
// coarse stage's streaming correlation, in the squared domain: callers
// feed |C|² and every quantity is kept squared — the normalization
// denominator (a mean of squares needs no root), the silence floor, the
// peak-hold envelope (max and the β decay commute with squaring) and the
// θ gate. All the comparisons the equations make are between non-negative
// values, so the squared scan picks the same candidates a linear one
// would while paying no per-lag square roots; the one root left runs per
// emitted candidate, whose val stays in linear normalized-correlation
// units. Window, decay and dominance parameters are scaled to the
// decimated lag rate by the constructor.
type coarseScan struct {
	normWindow int
	beta2      float64 // β², the squared-envelope decay
	theta2     float64 // θ², the squared candidate gate
	delta      int

	// Squared correlation magnitudes; z[0] is absolute lag zBase. zPrefix
	// has len(z)+1 entries with zPrefix[k+1]-zPrefix[k] = coarsePowScale·z[k].
	z       []float64
	zPrefix []float64
	zBase   int
	nmNext  int
	sumSq   float64
	count   int

	// Squared envelope; env[0] is absolute position envBase.
	env      []float64
	envBase  int
	envState float64
	envSeen  bool
	peakNext int

	cands []scanPeak // Eq. 6 candidates awaiting refinement
}

// scanPeak is one Eq. 6 candidate: a dominant local envelope max at an
// absolute coarse lag, val in linear normalized-correlation units.
type scanPeak struct {
	pos int
	val float64
}

// push integrates one squared correlation magnitude at absolute lag at
// (the current frontier).
func (s *coarseScan) push(at int, v float64) {
	if len(s.zPrefix) == 0 {
		s.zBase, s.nmNext = at, at
		s.zPrefix = append(s.zPrefix, 0)
	}
	p := v * coarsePowScale
	s.z = append(s.z, v)
	s.zPrefix = append(s.zPrefix, s.zPrefix[len(s.zPrefix)-1]+p)
	s.sumSq += p
	s.count++
}

// advance runs Eq. 4-6 (squared) over every position whose lookahead is
// satisfied, leaving new candidates in cands for the caller to drain.
func (s *coarseScan) advance() {
	S := s.normWindow
	zEnd := s.zBase + len(s.z)
	floor2 := 0.0
	if s.count > 0 {
		floor2 = 0.0004 * (s.sumSq / float64(s.count)) // (0.02·RMS)²
	}
	for s.nmNext+S <= zEnd {
		i := s.nmNext - s.zBase
		den2 := (s.zPrefix[i+S] - s.zPrefix[i]) / float64(S)
		if den2 < floor2 {
			den2 = floor2
		}
		var nv2 float64
		if den2 > 0 {
			nv2 = s.z[i] / den2
		}
		s.pushEnvelope(s.nmNext, nv2)
		s.nmNext++
	}
	s.trimZ()
	s.checkPeaks()
}

// pushEnvelope advances Eq. 5.
func (s *coarseScan) pushEnvelope(abs int, nv2 float64) {
	s.envState *= s.beta2
	if nv2 > s.envState {
		s.envState = nv2
	}
	if !s.envSeen {
		s.envBase = abs
		// Match the batch pipeline's boundary handling: a peak at the very
		// first correlation lag (abs 0) is eligible with only a right
		// neighbor; elsewhere peak checks start one position in.
		s.peakNext = abs
		if abs != 0 {
			s.peakNext = abs + 1
		}
		s.envSeen = true
	}
	s.env = append(s.env, s.envState)
}

// checkPeaks evaluates Eq. 6 plus the ±δ dominance rule for positions with
// full δ lookahead.
func (s *coarseScan) checkPeaks() {
	delta := s.delta
	envEnd := s.envBase + len(s.env)
	for s.peakNext+delta+1 < envEnd {
		t := s.peakNext
		s.peakNext++
		i := t - s.envBase
		if i < 0 || (i < 1 && t != 0) {
			continue
		}
		v := s.env[i]
		if v < s.theta2 || s.env[i+1] >= v {
			continue
		}
		if i >= 1 && s.env[i-1] > v {
			continue
		}
		dominant := true
		for j := max(0, i-delta); j <= i+delta && j < len(s.env); j++ {
			if s.env[j] > v {
				dominant = false
				break
			}
		}
		if !dominant {
			continue
		}
		s.cands = append(s.cands, scanPeak{pos: t, val: math.Sqrt(v)})
	}
	// Trim envelope history: only δ of lookbehind is ever needed again.
	if cut := s.peakNext - delta - 2 - s.envBase; cut > 0 {
		n := copy(s.env, s.env[cut:])
		s.env = s.env[:n]
		s.envBase += cut
	}
}

// trimZ drops correlation history that can no longer be read.
func (s *coarseScan) trimZ() {
	cut := s.nmNext - s.zBase
	if cut <= s.normWindow {
		return
	}
	cut -= s.normWindow // keep the live normalization window
	base := s.zPrefix[cut]
	n := copy(s.z, s.z[cut:])
	s.z = s.z[:n]
	for j := 0; j+cut < len(s.zPrefix); j++ {
		s.zPrefix[j] = s.zPrefix[cut+j] - base
	}
	s.zPrefix = s.zPrefix[:len(s.zPrefix)-cut]
	s.zBase += cut
}

// peakConfirm applies Eq. 7 over full-rate peak positions: a peak is
// confirmed once a companion peak exists one marker interval away (±δ) in
// either direction; expired peaks are dropped. Coarse candidates are
// refined to full-rate samples before they enter, so confirmation
// semantics are the batch pipeline's.
type peakConfirm struct {
	interval int // marker period L, full-rate samples
	delta    int
	pending  []pendingPeak
	out      []Detection
}

type pendingPeak struct {
	det       Detection
	confirmed bool
	emitted   bool
}

// add registers one peak (full-rate Sample) for confirmation.
func (c *peakConfirm) add(det Detection) {
	c.pending = append(c.pending, pendingPeak{det: det})
}

// confirm re-evaluates Eq. 7 against the given full-rate peak-scan
// frontier, queuing newly confirmed detections on out.
func (c *peakConfirm) confirm(frontier int) {
	L := c.interval
	delta := c.delta
	for i := range c.pending {
		p := &c.pending[i]
		if p.confirmed {
			continue
		}
		if c.hasPeakNear(p.det.Sample-L, delta) || c.hasPeakNear(p.det.Sample+L, delta) {
			p.confirmed = true
		}
	}
	// Emit newly confirmed in order; drop entries that are both expired
	// as candidates and too old to serve as companions.
	cutoff := frontier - 2*(L+delta)
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.confirmed && !p.emitted {
			c.out = append(c.out, p.det)
			p.emitted = true
		}
		expiredCandidate := !p.confirmed && p.det.Sample+L+delta < frontier
		tooOldCompanion := p.det.Sample < cutoff
		if (p.confirmed || expiredCandidate) && tooOldCompanion {
			continue
		}
		if expiredCandidate && p.det.Sample+2*(L+delta) < frontier {
			continue
		}
		kept = append(kept, p)
	}
	c.pending = kept
}

// hasPeakNear reports whether any pending/confirmed peak lies within
// ±delta of center.
func (c *peakConfirm) hasPeakNear(center, delta int) bool {
	for _, q := range c.pending {
		if q.det.Sample >= center-delta && q.det.Sample <= center+delta {
			return true
		}
	}
	return false
}

// take returns and clears the emitted detections.
func (c *peakConfirm) take() []Detection {
	out := c.out
	c.out = nil
	return out
}
