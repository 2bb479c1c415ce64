// Package codec implements the lossy audio codec substrate that stands in
// for OPUS in the paper's pipeline (§6.3: "OPUS compression scheme with
// 32 kbps of bitrate budget, super-wide-band mode, a level 4 search
// complexity and application set to lowdelay").
//
// Real OPUS is a large, patented hybrid codec; re-implementing its bitstream
// is out of scope and unnecessary — what Ekho cares about is that the chat
// uplink is *lossy*, *band-limited* and that harsher settings deteriorate
// the 6-12 kHz marker band. This codec reproduces those properties with a
// windowed-transform design:
//
//   - 20 ms frames (960 samples at 48 kHz), one-frame algorithmic delay;
//   - sine-windowed 50%-overlap MDCT analysis/synthesis with time-domain
//     alias cancellation — the same transform family as CELT/AAC; perfect
//     reconstruction when quantization is disabled;
//   - bandwidth limiting (SWB = 12 kHz, like OPUS super-wide-band);
//   - per-band scalar quantization whose step size follows the bitrate
//     budget, with complexity-dependent bit allocation (high complexity
//     allocates bits by band energy, low complexity allocates uniformly);
//   - low-delay mode trades frequency resolution for latency like OPUS's
//     "lowdelay" application, further hurting the marker band.
//
// The wire format is deliberately simple (per-band float32 scales plus
// packed indices); the *configured* bitrate drives distortion rather than
// the literal packet size. See DESIGN.md for the substitution rationale.
//
// Encoders and decoders share the MDCT plan and sine window of their block
// length. A decoder — one per hub session — keeps only what must survive
// between frames (the overlap tail and the concealment magnitudes) and
// borrows its transform scratch per call, so the steady-state
// EncodeTo/DecodeTo path allocates nothing once the caller reuses its
// packet and sample buffers.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

// Profile selects the codec operating point.
type Profile struct {
	Name        string
	Lossless    bool    // bypass quantization entirely (paper's "No compression")
	BitrateKbps float64 // bit budget driving quantization noise
	BandwidthHz float64 // hard spectral cutoff (SWB = 12 kHz)
	Complexity  int     // 0-10; >=4 enables energy-driven bit allocation
	LowDelay    bool    // halve the transform length ("application lowdelay")
}

// The operating points used in the paper's evaluation (§6.3, Appendix C).
var (
	Lossless = Profile{Name: "No compression", Lossless: true, BandwidthHz: 24000}
	SWB32    = Profile{Name: "OPUS-like SWB 32kbps", BitrateKbps: 32, BandwidthHz: 12000, Complexity: 4}
	SWB24    = Profile{Name: "OPUS-like SWB 24kbps", BitrateKbps: 24, BandwidthHz: 12000, Complexity: 4}
	SWB24ULL = Profile{Name: "OPUS-like SWB 24kbps ULL", BitrateKbps: 24, BandwidthHz: 12000, Complexity: 4, LowDelay: true}
)

// FrameSamples is the codec frame size: 20 ms at 48 kHz.
const FrameSamples = audio.FrameSamples

const (
	numBands = 24 // roughly Bark-spaced quantization bands
	magic    = 0xEC
	// blockTag identifies the MDCT block format in packets.
	blockTag = 0x02
)

// ErrBadPacket reports a corrupt, truncated or out-of-range encoded frame.
var ErrBadPacket = errors.New("codec: bad packet")

// Wire values are floating point, so a hostile or corrupt packet can carry
// NaN, ±Inf or an absurd magnitude. Downstream, the estimator keeps
// since-stream-start power sums that one such sample poisons for good, so
// the decoder refuses them at the door.
const (
	// maxSample bounds a lossless sample's magnitude: well above full
	// scale (±1), far below anything the power sums cannot absorb.
	maxSample = 16
	// maxBandScale bounds a lossy band's scale factor: the unnormalized
	// MDCT of a 2·FrameSamples block of samples within ±maxSample cannot
	// exceed it.
	maxBandScale = maxSample * 2 * FrameSamples
)

// blockLen returns the transform block length for the profile: two frames
// (50% overlap) normally, one frame in low-delay mode.
func (p Profile) blockLen() int {
	if p.LowDelay {
		return FrameSamples
	}
	return 2 * FrameSamples
}

// hop returns the analysis hop (always half the block).
func (p Profile) hop() int { return p.blockLen() / 2 }

// sineWindows holds the shared, read-only sine window of each block length
// a profile can use: one frame (low delay) and two.
var sineWindows = [2][]float64{sineWindow(FrameSamples), sineWindow(2 * FrameSamples)}

// window returns the profile's shared synthesis/analysis window.
func (p Profile) window() []float64 { return sineWindows[p.blockLen()/FrameSamples-1] }

// Encoder compresses a 48 kHz mono stream frame by frame.
type Encoder struct {
	prof    Profile
	window  []float64 // shared, read-only
	history []float64 // last hop samples, prepended to each block
	bands   []bandDef

	mdct  *dsp.MDCTPlan // shared
	block []float64     // windowed analysis block scratch
	spec  []float64     // MDCT spectrum scratch
	bits  []int         // per-band bit allocation scratch
	logE  []float64     // per-band log-energy scratch
}

// Decoder reconstructs the stream, maintaining overlap-add state. It
// retains only the overlap tail and the concealment magnitudes; the
// spectrum and time-domain scratch of a block live inside one call,
// borrowed from dsp's free list, so their count follows concurrency, not
// decoders. A lossless decoder has no transform state at all.
type Decoder struct {
	prof    Profile
	window  []float64     // shared, read-only; nil when lossless
	mdct    *dsp.MDCTPlan // shared; nil when lossless
	overlap []float64     // tail of the previous block awaiting summation
	bands   []bandDef
	top     int       // end of the last band: bins from here up are never coded and stay zero
	last    []float64 // |spectrum| of bins [0, top) of the last block, for concealment; nil until one is decoded
}

type bandDef struct{ lo, hi int } // bin range [lo, hi)

// NewEncoder returns an encoder for the profile.
func NewEncoder(p Profile) *Encoder {
	bl := p.blockLen()
	bands := makeBands(p.hop(), p.BandwidthHz)
	return &Encoder{
		prof:    p,
		window:  p.window(),
		history: make([]float64, p.hop()),
		bands:   bands,
		mdct:    dsp.MDCTPlanFor(p.hop()),
		block:   make([]float64, bl),
		spec:    make([]float64, p.hop()),
		bits:    make([]int, len(bands)),
		logE:    make([]float64, len(bands)),
	}
}

// NewDecoder returns a decoder for the profile. A lossless decoder decodes
// only lossless frames.
func NewDecoder(p Profile) *Decoder {
	if p.Lossless {
		return &Decoder{prof: p}
	}
	bands := makeBands(p.hop(), p.BandwidthHz)
	return &Decoder{
		prof:    p,
		window:  p.window(),
		mdct:    dsp.MDCTPlanFor(p.hop()),
		overlap: make([]float64, p.hop()),
		bands:   bands,
		top:     bands[len(bands)-1].hi, // makeBands returns at least one band
	}
}

// sineWindow is the MDCT sine window sin(π(i+½)/L): symmetric and
// Princen-Bradley compliant, so analysis+synthesis windowing with 50%
// overlap-add cancels the MDCT's time-domain aliasing exactly.
func sineWindow(l int) []float64 {
	w := make([]float64, l)
	for i := range w {
		w[i] = math.Sin(math.Pi * (float64(i) + 0.5) / float64(l))
	}
	return w
}

// makeBands splits the usable MDCT spectrum into roughly logarithmic bands
// up to the bandwidth cutoff. With hop-size N, MDCT bin k covers
// frequencies around (k+½)·fs/(2N).
func makeBands(nBins int, bandwidthHz float64) []bandDef {
	maxBin := int(bandwidthHz / (audio.SampleRate / 2) * float64(nBins))
	if maxBin > nBins {
		maxBin = nBins
	}
	bands := make([]bandDef, 0, numBands)
	// Edges grow geometrically from ~100 Hz, first band covers DC upward.
	prev := 0
	for b := 1; b <= numBands; b++ {
		frac := float64(b) / numBands
		edge := int(math.Pow(float64(maxBin), frac) * math.Pow(4, 1-frac))
		if edge <= prev {
			edge = prev + 1
		}
		if edge > maxBin {
			edge = maxBin
		}
		bands = append(bands, bandDef{prev, edge})
		prev = edge
		if prev >= maxBin {
			break
		}
	}
	if prev < maxBin {
		bands = append(bands, bandDef{prev, maxBin})
	}
	return bands
}

// Encode compresses one 960-sample frame and returns the packet bytes.
// The stream has one hop of algorithmic delay: packet i reconstructs the
// signal span ending at frame i's start (see Decoder.Decode).
func (e *Encoder) Encode(frame []float64) ([]byte, error) {
	return e.EncodeTo(nil, frame)
}

// EncodeTo is Encode appending the packet to dst and returning the extended
// slice. With a reused dst the steady-state path allocates nothing.
func (e *Encoder) EncodeTo(dst []byte, frame []float64) ([]byte, error) {
	if len(frame) != FrameSamples {
		return dst, fmt.Errorf("codec: frame must be %d samples, got %d", FrameSamples, len(frame))
	}
	if e.prof.Lossless {
		return e.appendLossless(dst, frame), nil
	}
	hop := e.prof.hop()
	bl := e.prof.blockLen()
	prefixed := hop < FrameSamples // low-delay: two length-prefixed sub-blocks
	for offset := 0; offset+hop <= len(frame); offset += hop {
		copy(e.block, e.history)
		copy(e.block[hop:], frame[offset:offset+hop])
		copy(e.history, frame[offset:offset+hop])
		for i := 0; i < bl; i++ {
			e.block[i] *= e.window[i]
		}
		if prefixed {
			// u16 length placeholder, backfilled after the block is written.
			at := len(dst)
			dst = append(dst, 0, 0)
			dst = e.appendBlock(dst)
			binary.LittleEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
		} else {
			dst = e.appendBlock(dst)
		}
	}
	return dst, nil
}

func (e *Encoder) appendLossless(dst []byte, frame []float64) []byte {
	need := 3 + 8*len(frame)
	dst = ensureCap(dst, need)
	n := len(dst)
	dst = dst[:n+need]
	dst[n], dst[n+1], dst[n+2] = magic, 0xFF, 0
	for i, v := range frame {
		binary.LittleEndian.PutUint64(dst[n+3+8*i:], math.Float64bits(v))
	}
	return dst
}

// ensureCap grows dst's spare capacity to at least extra bytes in a single
// allocation, so the append-style serializers don't pay repeated doubling
// on a cold buffer.
func ensureCap(dst []byte, extra int) []byte {
	if cap(dst)-len(dst) >= extra {
		return dst
	}
	nd := make([]byte, len(dst), len(dst)+extra)
	copy(nd, dst)
	return nd
}

// appendBlock MDCT-transforms and quantizes the windowed block scratch,
// appending the serialized bytes to dst.
func (e *Encoder) appendBlock(dst []byte) []byte {
	blockBytes := 3
	for _, bd := range e.bands {
		blockBytes += 5 + 2*(bd.hi-bd.lo)
	}
	dst = ensureCap(dst, blockBytes)
	e.spec = e.mdct.Forward(e.spec, e.block)

	bits := e.allocateBits(e.spec)
	// Serialize: magic, tag, band count, then per band: scale f32 +
	// bits u8 + one int16 index per MDCT coefficient.
	dst = append(dst, magic, blockTag, byte(len(e.bands)))
	for bi, bd := range e.bands {
		scale := bandScale(e.spec, bd)
		levels := float64(int(1) << bits[bi])
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(scale)))
		dst = append(dst, byte(bits[bi]))
		for bin := bd.lo; bin < bd.hi; bin++ {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(quantize(e.spec[bin], scale, levels)))
		}
	}
	return dst
}

// allocateBits distributes the per-block bit budget over bands into the
// encoder's reused scratch. High complexity allocates proportionally to log
// band energy (a crude perceptual water-filling); low complexity spreads
// bits uniformly, wasting budget on empty bands — this is what makes
// low-complexity encodes hurt the sparse 6-12 kHz marker band more.
func (e *Encoder) allocateBits(spec []float64) []int {
	hopSec := float64(e.prof.hop()) / audio.SampleRate
	// entropyEfficiency models the gap between our raw scalar indices and
	// a real codec's entropy-coded bitstream: OPUS squeezes roughly this
	// factor more fidelity out of the same bit budget than uncoded scalar
	// quantization, so the *perceived* operating point of "32 kbps SWB"
	// corresponds to this many raw index bits.
	const entropyEfficiency = 6.0
	budget := e.prof.BitrateKbps * 1000 * hopSec * entropyEfficiency
	// Reserve header overhead per band.
	budget -= float64(len(e.bands) * 40)
	if budget < 0 {
		budget = 0
	}
	var totalBins int
	for _, bd := range e.bands {
		totalBins += bd.hi - bd.lo
	}
	bits := e.bits
	if totalBins == 0 {
		for i := range bits {
			bits[i] = 0
		}
		return bits
	}
	if e.prof.Complexity < 4 {
		per := int(budget / float64(totalBins))
		for i := range bits {
			bits[i] = clampBits(per)
		}
		return bits
	}
	// Reverse water-filling (the rate-distortion solution for scalar
	// quantizers): every band gets base bits plus half the log2 of its
	// per-bin energy relative to the geometric mean, so loud bands get
	// finer steps without starving wide quiet ones.
	logE := e.logE
	var meanLogE float64
	for i, bd := range e.bands {
		var energy float64
		for bin := bd.lo; bin < bd.hi; bin++ {
			energy += spec[bin] * spec[bin]
		}
		perBin := energy/float64(bd.hi-bd.lo) + 1e-12
		logE[i] = 0.5 * math.Log2(perBin)
		meanLogE += logE[i] * float64(bd.hi-bd.lo)
	}
	meanLogE /= float64(totalBins)
	base := budget / float64(totalBins)
	for i := range e.bands {
		bits[i] = clampBits(int(base + logE[i] - meanLogE + 0.5))
	}
	return bits
}

func clampBits(b int) int {
	if b < 1 {
		return 1
	}
	if b > 14 {
		return 14
	}
	return b
}

func bandScale(spec []float64, bd bandDef) float64 {
	var peak float64
	for bin := bd.lo; bin < bd.hi; bin++ {
		if a := math.Abs(spec[bin]); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return 1e-12
	}
	return peak
}

// quantize maps v in [-scale, scale] to a signed index with the given
// number of levels (per polarity).
func quantize(v, scale, levels float64) int16 {
	q := math.Round(v / scale * (levels - 1))
	if q > 32767 {
		q = 32767
	}
	if q < -32768 {
		q = -32768
	}
	return int16(q)
}

func dequantize(q int16, scale, levels float64) float64 {
	return float64(q) / (levels - 1) * scale
}

// Decode reconstructs one 960-sample frame from a packet. Because of the
// 50% overlap the output is delayed by one hop relative to the input fed
// to Encode — callers that need sample-exact alignment should use
// RoundTripAligned.
func (d *Decoder) Decode(pkt []byte) ([]float64, error) {
	return d.DecodeTo(nil, pkt)
}

// DecodeTo is Decode appending the reconstructed samples to dst and
// returning the extended slice. With a reused dst the steady-state path
// allocates nothing.
func (d *Decoder) DecodeTo(dst []float64, pkt []byte) ([]float64, error) {
	if len(pkt) >= 3 && pkt[0] == magic && pkt[1] == 0xFF {
		return d.appendLossless(dst, pkt)
	}
	if d.mdct == nil {
		return dst, fmt.Errorf("%w: transform block for a lossless decoder", ErrBadPacket)
	}
	if d.prof.LowDelay {
		// Two sub-packets with length prefixes.
		start := len(dst)
		rest := pkt
		for len(dst)-start < FrameSamples {
			if len(rest) < 2 {
				return dst[:start], ErrBadPacket
			}
			n := int(binary.LittleEndian.Uint16(rest))
			rest = rest[2:]
			if len(rest) < n {
				return dst[:start], ErrBadPacket
			}
			var err error
			dst, err = d.appendBlock(dst, rest[:n])
			if err != nil {
				return dst[:start], err
			}
			rest = rest[n:]
		}
		return dst, nil
	}
	if len(pkt) < 3 || pkt[0] != magic {
		return dst, ErrBadPacket
	}
	return d.appendBlock(dst, pkt)
}

func (d *Decoder) appendLossless(dst []float64, pkt []byte) ([]float64, error) {
	n := (len(pkt) - 3) / 8
	if n != FrameSamples {
		return dst, ErrBadPacket
	}
	start := len(dst)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(pkt[3+8*i:]))
		if !(math.Abs(v) <= maxSample) { // NaN fails every comparison
			return dst[:start], ErrBadPacket
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// appendBlock inverts one block and appends hop samples of finished output.
func (d *Decoder) appendBlock(dst []float64, pkt []byte) ([]float64, error) {
	if len(pkt) < 3 || pkt[0] != magic || pkt[1] != blockTag {
		return dst, ErrBadPacket
	}
	nb := int(pkt[2])
	if nb != len(d.bands) {
		return dst, fmt.Errorf("%w: band count %d want %d", ErrBadPacket, nb, len(d.bands))
	}
	hop := len(d.overlap)
	scr := dsp.BorrowFloats(3 * hop)
	defer dsp.ReturnFloats(scr)
	spec := scr[:hop]
	clear(spec) // bins from top up are never coded
	pos := 3
	for _, bd := range d.bands {
		if pos+5 > len(pkt) {
			return dst, ErrBadPacket
		}
		scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(pkt[pos:])))
		if !(math.Abs(scale) <= maxBandScale) { // NaN fails every comparison
			return dst, ErrBadPacket
		}
		bitCount := int(pkt[pos+4])
		pos += 5
		levels := float64(int(1) << clampBits(bitCount))
		for bin := bd.lo; bin < bd.hi; bin++ {
			if pos+2 > len(pkt) {
				return dst, ErrBadPacket
			}
			spec[bin] = dequantize(int16(binary.LittleEndian.Uint16(pkt[pos:])), scale, levels)
			pos += 2
		}
	}
	return d.appendSynthesis(dst, spec, scr[hop:]), nil
}

// appendSynthesis inverts the hop-bin spectrum (IMDCT) into td, 2·hop of
// scratch, windows and overlap-adds, appending the completed hop of output
// samples to dst.
func (d *Decoder) appendSynthesis(dst, spec, td []float64) []float64 {
	d.rememberSpectrum(spec)
	td = d.mdct.Inverse(td, spec)
	hop := len(d.overlap)
	n := len(dst)
	dst = slices.Grow(dst, hop)[:n+hop]
	out := dst[n:]
	for i, o := range d.overlap {
		out[i] = o + td[i]*d.window[i]
	}
	for i := range d.overlap {
		d.overlap[i] = td[hop+i] * d.window[hop+i]
	}
	return dst
}

func (d *Decoder) rememberSpectrum(spec []float64) {
	if d.last == nil {
		d.last = make([]float64, d.top)
	}
	for i, c := range spec[:d.top] {
		d.last[i] = math.Abs(c)
	}
}

// ConcealTo appends a packet-loss-concealment frame to dst and returns the
// extended slice: the previous block's spectrum magnitudes with decayed
// energy (a standard PLC approximation), or silence if no frame was ever
// decoded.
func (d *Decoder) ConcealTo(dst []float64) []float64 {
	if d.mdct == nil { // lossless: no spectrum to repeat
		n := len(dst)
		dst = slices.Grow(dst, FrameSamples)[:n+FrameSamples]
		clear(dst[n:])
		return dst
	}
	hop := len(d.overlap)
	scr := dsp.BorrowFloats(3 * hop)
	defer dsp.ReturnFloats(scr)
	spec, td := scr[:hop], scr[hop:]
	for f := 0; f < FrameSamples/hop; f++ {
		if d.last == nil {
			dst = append(dst, d.overlap...)
			clear(d.overlap)
			continue
		}
		for i, m := range d.last {
			spec[i] = m * 0.5 // decayed, sign-flattened repeat
		}
		clear(spec[d.top:])
		dst = d.appendSynthesis(dst, spec, td)
		for i := range d.last {
			d.last[i] *= 0.5
		}
	}
	return dst
}

// Delay returns the codec's algorithmic delay in samples (one hop).
func (p Profile) Delay() int {
	if p.Lossless {
		return 0
	}
	return p.hop()
}

// RoundTrip encodes and decodes a whole buffer through the profile,
// returning a buffer of the same length including the algorithmic delay
// (output is shifted later by Profile.Delay() samples).
func RoundTrip(b *audio.Buffer, p Profile) (*audio.Buffer, error) {
	enc := NewEncoder(p)
	dec := NewDecoder(p)
	out := audio.NewBuffer(b.Rate, 0)
	for _, frame := range b.Frames(FrameSamples) {
		pkt, err := enc.Encode(frame)
		if err != nil {
			return nil, err
		}
		dc, err := dec.Decode(pkt)
		if err != nil {
			return nil, err
		}
		out.AppendFrame(dc)
	}
	out.Samples = out.Samples[:min(len(out.Samples), b.Len())]
	return out, nil
}

// RoundTripAligned is RoundTrip with the algorithmic delay removed, so the
// output is sample-aligned with the input (used by the offline experiment
// pipelines where codec latency is accounted separately).
func RoundTripAligned(b *audio.Buffer, p Profile) (*audio.Buffer, error) {
	padded := b.Clone()
	padded.Samples = append(padded.Samples, make([]float64, FrameSamples)...)
	rt, err := RoundTrip(padded, p)
	if err != nil {
		return nil, err
	}
	d := p.Delay()
	end := d + b.Len()
	if end > rt.Len() {
		end = rt.Len()
	}
	return audio.FromSamples(b.Rate, rt.Samples[d:end]), nil
}
