package serverpipe

import (
	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/dsp"
)

// FrameInfo describes one produced downlink frame: its sequence number,
// the content position of its first content sample (-1 for all-gap
// frames) and the in-frame offset where content begins.
type FrameInfo struct {
	Seq          uint32
	ContentStart int64
	ContentOff   int
}

// Stream produces the per-tick downlink frames for one compensable
// stream, tracking the mapping between transmitted frames and game-content
// positions. Compensation actions (silence insertion, content skip) are
// applied here; content positions are "unlooped" sample indices into an
// infinite repetition of the game clip.
type Stream struct {
	game        *audio.Buffer
	pos         int // next content sample to transmit
	silenceDebt int // gap samples still to insert
	seq         uint32
	// interp, when set, synthesizes inserted gaps from the surrounding
	// audio (PLC-style) instead of hard silence — the §4.4 future-work
	// enhancement.
	interp *compensator.Interpolator
	// gapEnded marks that the last frame ended in a synthesized gap, so
	// the next content is cross-faded in.
	gapEnded bool
	// Micro-resampling state (the drift regime's continuous action). The
	// fractional path engages on the first non-zero SetResamplePPM and
	// stays engaged; zero-drift sessions never touch it, so the integer
	// path above remains bit-identical to the pre-drift behavior.
	frac    bool
	posF    float64 // fractional content position (valid when frac)
	stepPPM float64 // commanded rate offset, ppm
}

// NewStream returns a stream over the (shared, read-only) game clip.
func NewStream(game *audio.Buffer) *Stream {
	return &Stream{game: game}
}

// EnableInterpolation switches inserted delay from silence to PLC-style
// synthesized audio.
func (st *Stream) EnableInterpolation() {
	st.interp = compensator.NewInterpolator()
}

// Apply registers a compensation action with this stream.
func (st *Stream) Apply(a compensator.Action) {
	st.silenceDebt += a.InsertFrames*audio.FrameSamples + a.InsertSamples
	skip := a.SkipFrames*audio.FrameSamples + a.SkipSamples
	if skip > 0 {
		// Skipping drains pending silence first (reverting an earlier
		// correction); any remainder drops content.
		if st.silenceDebt >= skip {
			st.silenceDebt -= skip
			skip = 0
		} else {
			skip -= st.silenceDebt
			st.silenceDebt = 0
		}
		st.pos += skip
		st.posF += float64(skip)
	}
}

// SetResamplePPM retunes the stream's content-consumption rate: each
// output sample advances the content position by 1 + ppm·1e-6 samples
// (positive = continuous skip, negative = continuous stretch). The first
// non-zero rate switches the stream onto the fractional read path
// permanently; a commanded rate of 0 before that is a no-op, preserving
// the integer path bit-exactly.
func (st *Stream) SetResamplePPM(ppm float64) {
	if !st.frac {
		if ppm == 0 {
			return
		}
		st.frac = true
		st.posF = float64(st.pos)
	}
	st.stepPPM = ppm
}

// Next fills dst (FrameSamples long; callers reuse one buffer to keep
// the path off the heap) with the next 20 ms frame and returns its frame
// info. Gap audio is silence by default, or synthesized continuation when
// interpolation is enabled; then the content that resumes after a gap is
// cross-faded in from that continuation.
func (st *Stream) Next(dst []float64) FrameInfo {
	if len(dst) != audio.FrameSamples {
		panic("serverpipe: Stream.Next requires 20 ms frames")
	}
	fi := FrameInfo{Seq: st.seq}
	st.seq++
	if st.silenceDebt >= audio.FrameSamples {
		st.silenceDebt -= audio.FrameSamples
		if st.interp != nil {
			copy(dst, st.interp.Synthesize(audio.FrameSamples))
			st.gapEnded = true
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		fi.ContentStart = -1
		return fi
	}
	off := st.silenceDebt
	st.silenceDebt = 0
	if off > 0 {
		if st.interp != nil {
			copy(dst[:off], st.interp.Synthesize(off))
		} else {
			for i := 0; i < off; i++ {
				dst[i] = 0
			}
		}
	}
	fi.ContentStart = int64(st.pos)
	fi.ContentOff = off
	if st.frac {
		// Fractional path: read the looped clip at posF through the
		// windowed-sinc kernel, advancing by the commanded rate. The
		// frame's content identity is the rounded start position —
		// within one sample of truth at micro-resampling rates.
		step := 1 + st.stepPPM*1e-6
		fi.ContentStart = int64(st.posF + 0.5)
		for i := off; i < audio.FrameSamples; i++ {
			dst[i] = dsp.InterpLooped(st.game.Samples, st.posF)
			st.posF += step
		}
		st.pos = int(st.posF + 0.5)
	} else {
		// Copy whole runs of the looped clip: one copy, or two across the
		// clip's wrap point (more only for a clip shorter than a frame).
		clip := st.game.Samples
		for i := off; i < audio.FrameSamples; {
			k := copy(dst[i:], clip[st.pos%len(clip):])
			i += k
			st.pos += k
		}
	}
	if st.interp != nil {
		// Cross-fade the content that follows a gap (one ending this
		// frame's head, or a whole-frame one) from the gap's continuation.
		if off > 0 || st.gapEnded {
			st.interp.BlendIn(dst[off:])
			st.gapEnded = false
		}
		st.interp.Observe(dst[off:])
	}
	return fi
}

// NextContent returns the content position the next content sample will
// have (used to tie markers that begin during inserted silence).
func (st *Stream) NextContent() int64 { return int64(st.pos) }
