// Package trace is Ekho's capture/replay subsystem: it records a live
// session's full timeline — pipeline inputs (media ticks, playback
// records, chat packets), outbound media metadata and every pipeline
// lifecycle event — to a compact, versioned binary log, and re-drives a
// fresh serverpipe.Pipeline from such a log deterministically, verifying
// that the replay reproduces the recorded ISD measurement and
// compensation-action sequences bit for bit.
//
// # Log format
//
// A trace file is a fixed 10-byte preamble — the 8-byte magic "EKHOTRC\0"
// and a little-endian uint16 format version — followed by a sequence of
// length-prefixed records:
//
//	[type uint8][length uint32][payload ...]
//
// All integers are little-endian; floats are IEEE-754 bits. A session
// trace starts with one header record (type 0) carrying what a session can
// vary (clip index, PN seed, marker volume, codec profile, compensator
// tuning, mode flags, drift on or off); everything else the pipeline uses
// is a constant of this build. The remaining records are the interleaved
// inputs and events in the exact order the live session processed them.
//
// # Versioning rules
//
//   - A record's payload layout is fixed within a version: adding,
//     removing or reordering a field bumps the version. Readers reject
//     versions they do not know.
//   - Within a version, unknown record types are skipped (their length
//     prefix makes that possible), so new informational record types can
//     be added without a version bump.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/gamesynth"
	"ekho/internal/pn"
	"ekho/internal/serverpipe"
)

// Version is the current trace format version; readers refuse any other.
const Version = 2

// magic identifies a trace container file.
var magic = [8]byte{'E', 'K', 'H', 'O', 'T', 'R', 'C', 0}

// maxRecordLen bounds a single record so a corrupt length prefix cannot
// make a reader attempt a huge allocation (chat payloads are a few KB).
const maxRecordLen = 1 << 24

// RecType identifies a trace record.
type RecType uint8

// Record types. Inputs (tick, playback record, chat) re-drive the
// pipeline on replay; events are the recorded outputs replay verifies
// against; media-out records carry outbound packet metadata checked
// against the replayed streams' frame bookkeeping.
const (
	RecHeader RecType = iota
	RecTick
	RecRecord
	RecChat
	RecMediaOut
	RecMarkerInjected
	RecMarkerMatched
	RecMarkerExpired
	RecChatConcealed
	RecISD
	RecAction
	// RecResample carries a drift-regime rate retune.
	RecResample
)

// Stream identifiers for RecMediaOut.
const (
	StreamScreen    uint8 = 0
	StreamAccessory uint8 = 1
)

// Header reconstructs a session's pipeline configuration on replay. It
// records the *effective* (defaulted) value of every setting a session
// can vary, so a replayed pipeline is assembled identically to the
// recorded one. The game clip's length (gamesynth.ClipSeconds) and the PN
// template's length (pn.DefaultLength) are the same for every session and
// are not recorded.
type Header struct {
	// SessionID is the wire session identifier (0 for simulator runs).
	SessionID uint32
	// ClipIndex regenerates the looping game clip from the deterministic
	// gamesynth corpus.
	ClipIndex int
	// Seed regenerates the PN marker template.
	Seed int64
	// MarkerC is the relative marker volume.
	MarkerC float64
	// Codec is the full chat uplink profile (stored field by field, so
	// custom profiles round-trip without a registry).
	Codec codec.Profile
	// Compensator is the correction-loop tuning.
	Compensator compensator.Config
	// Mode flags, mirrored from serverpipe.Config.
	DisableMarkers     bool
	InterpolatedInsert bool
	MutedScreen        bool
	ChatStartsAtZero   bool
	Drift              bool
}

// HeaderFor captures a session's effective pipeline configuration. The
// clip index and PN seed are passed separately because serverpipe.Config
// holds the materialized buffers, not their generators.
func HeaderFor(sessionID uint32, clipIndex int, seed int64, cfg serverpipe.Config) Header {
	cfg = cfg.Normalized()
	return Header{
		SessionID:          sessionID,
		ClipIndex:          clipIndex,
		Seed:               seed,
		MarkerC:            cfg.MarkerC,
		Codec:              cfg.Codec,
		Compensator:        cfg.Compensator,
		DisableMarkers:     cfg.DisableMarkers,
		InterpolatedInsert: cfg.InterpolatedInsert,
		MutedScreen:        cfg.MutedScreen,
		ChatStartsAtZero:   cfg.ChatStartsAtZero,
		Drift:              cfg.Drift,
	}
}

// PipelineConfig rebuilds the recorded session's pipeline configuration:
// the game clip and PN sequence are regenerated from their deterministic
// sources. Now and Sink are left nil for the caller (the replayer) to set.
func (h Header) PipelineConfig() serverpipe.Config {
	cat := gamesynth.Catalog()
	return serverpipe.Config{
		Game:               gamesynth.Generate(cat[h.ClipIndex%len(cat)], gamesynth.ClipSeconds),
		Seq:                pn.NewSequence(h.Seed, pn.DefaultLength),
		MarkerC:            h.MarkerC,
		Codec:              h.Codec,
		Compensator:        h.Compensator,
		DisableMarkers:     h.DisableMarkers,
		InterpolatedInsert: h.InterpolatedInsert,
		MutedScreen:        h.MutedScreen,
		ChatStartsAtZero:   h.ChatStartsAtZero,
		Drift:              h.Drift,
	}
}

// Rec is one decoded trace record: a tagged union over all record types.
// Only the fields relevant to Type are meaningful.
type Rec struct {
	Type RecType

	// Now is the pipeline content time an input was applied at (RecTick,
	// RecRecord, RecChat) or an event fired at (RecISD, RecAction).
	Now float64

	// Content is a game-content sample position (RecRecord and the marker
	// events).
	Content int64
	// LocalTime is a device-local timestamp in seconds (RecRecord:
	// playback start; RecMarkerMatched: resolved playback time;
	// RecChatConcealed: concealed-gap start).
	LocalTime float64
	// N is a covered sample count (RecRecord).
	N int

	// Seq is a packet sequence number (RecChat, RecMediaOut,
	// RecChatConcealed).
	Seq uint32
	// ADCLocal is the chat capture timestamp (RecChat).
	ADCLocal float64
	// Encoded is the chat packet payload (RecChat). The slice aliases the
	// reader's scratch only until the next Next call; Replay copies it.
	Encoded []byte

	// Stream / ContentOff / Size describe an outbound media packet
	// (RecMediaOut): StreamScreen or StreamAccessory, the frame's content
	// bookkeeping, and the serialized datagram size (informational — not
	// compared on replay, since it depends on the host's wire encoding).
	Stream     uint8
	ContentOff int
	Size       int

	// M is an ISD measurement (RecISD).
	M estimator.Measurement
	// Action is a compensation action (RecAction).
	Action compensator.Action
	// Resample is a drift-regime rate retune (RecResample).
	Resample compensator.Resample
}

// String renders a record for divergence reports.
func (r Rec) String() string {
	switch r.Type {
	case RecTick:
		return fmt.Sprintf("tick now=%.6f", r.Now)
	case RecRecord:
		return fmt.Sprintf("record now=%.6f content=%d n=%d local=%.9f", r.Now, r.Content, r.N, r.LocalTime)
	case RecChat:
		return fmt.Sprintf("chat now=%.6f seq=%d adc=%.9f bytes=%d", r.Now, r.Seq, r.ADCLocal, len(r.Encoded))
	case RecMediaOut:
		return fmt.Sprintf("media stream=%d seq=%d content=%d off=%d size=%d", r.Stream, r.Seq, r.Content, r.ContentOff, r.Size)
	case RecMarkerInjected:
		return fmt.Sprintf("marker-injected content=%d", r.Content)
	case RecMarkerMatched:
		return fmt.Sprintf("marker-matched content=%d local=%.9f", r.Content, r.LocalTime)
	case RecMarkerExpired:
		return fmt.Sprintf("marker-expired content=%d", r.Content)
	case RecChatConcealed:
		return fmt.Sprintf("chat-concealed seq=%d start=%.9f", r.Seq, r.LocalTime)
	case RecISD:
		return fmt.Sprintf("isd now=%.6f isd=%.9f det=%.9f marker=%.9f strength=%.3f",
			r.Now, r.M.ISDSeconds, r.M.DetectionTime, r.M.MarkerTime, r.M.Strength)
	case RecAction:
		return fmt.Sprintf("action now=%.6f stream=%d insert=%d/%d skip=%d/%d", r.Now, r.Action.Stream,
			r.Action.InsertFrames, r.Action.InsertSamples, r.Action.SkipFrames, r.Action.SkipSamples)
	case RecResample:
		return fmt.Sprintf("resample now=%.6f stream=%d ppm=%.3f", r.Now, r.Resample.Stream, r.Resample.PPM)
	}
	return fmt.Sprintf("unknown(%d)", r.Type)
}

// IsInput reports whether the record re-drives the pipeline on replay.
func (r Rec) IsInput() bool {
	return r.Type == RecTick || r.Type == RecRecord || r.Type == RecChat
}

// IsEvent reports whether the record is a verified pipeline output.
func (r Rec) IsEvent() bool {
	switch r.Type {
	case RecMarkerInjected, RecMarkerMatched, RecMarkerExpired, RecChatConcealed, RecISD, RecAction, RecResample:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Low-level append helpers (the Recorder's zero-allocation encode path).

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendString(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendHeader serializes a Header payload.
func appendHeader(b []byte, h Header) []byte {
	b = appendU32(b, h.SessionID)
	b = appendU32(b, uint32(int32(h.ClipIndex)))
	b = appendU64(b, uint64(h.Seed))
	b = appendF64(b, h.MarkerC)
	b = appendString(b, h.Codec.Name)
	b = appendBool(b, h.Codec.Lossless)
	b = appendF64(b, h.Codec.BitrateKbps)
	b = appendF64(b, h.Codec.BandwidthHz)
	b = appendU32(b, uint32(int32(h.Codec.Complexity)))
	b = appendBool(b, h.Codec.LowDelay)
	b = appendF64(b, h.Compensator.MinCorrectionSec)
	b = appendF64(b, h.Compensator.SettleSec)
	b = appendBool(b, h.DisableMarkers)
	b = appendBool(b, h.InterpolatedInsert)
	b = appendBool(b, h.MutedScreen)
	b = appendBool(b, h.ChatStartsAtZero)
	b = appendBool(b, h.Drift)
	return b
}

// ---------------------------------------------------------------------------
// Decoding.

// ErrCorrupt reports a structurally invalid trace.
var ErrCorrupt = errors.New("trace: corrupt log")

// decoder walks one record payload.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated record payload", ErrCorrupt)
	}
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i32() int     { return int(int32(d.u32())) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) boolean() bool { return d.u8() != 0 } // named to avoid shadowing the builtin type

func (d *decoder) str() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func decodeHeader(payload []byte) (Header, error) {
	d := decoder{b: payload}
	var h Header
	h.SessionID = d.u32()
	h.ClipIndex = d.i32()
	h.Seed = d.i64()
	h.MarkerC = d.f64()
	h.Codec.Name = d.str()
	h.Codec.Lossless = d.boolean()
	h.Codec.BitrateKbps = d.f64()
	h.Codec.BandwidthHz = d.f64()
	h.Codec.Complexity = d.i32()
	h.Codec.LowDelay = d.boolean()
	h.Compensator.MinCorrectionSec = d.f64()
	h.Compensator.SettleSec = d.f64()
	h.DisableMarkers = d.boolean()
	h.InterpolatedInsert = d.boolean()
	h.MutedScreen = d.boolean()
	h.ChatStartsAtZero = d.boolean()
	h.Drift = d.boolean()
	return h, d.err
}

// Reader decodes a trace container record by record.
type Reader struct {
	r       *bufio.Reader
	scratch []byte
	// Header is the session header, valid once ReadHeader (or the first
	// Next that encounters it) has run.
	hdr    Header
	hasHdr bool
}

// NewReader validates the preamble and positions the reader at the first
// record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var pre [10]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: missing preamble: %v", ErrCorrupt, err)
	}
	if [8]byte(pre[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(pre[8:]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (reader speaks %d)", v, Version)
	}
	return &Reader{r: br}, nil
}

// Header returns the session header and whether one has been read yet.
func (rd *Reader) Header() (Header, bool) { return rd.hdr, rd.hasHdr }

// next reads one raw record.
func (rd *Reader) next() (RecType, []byte, error) {
	var pre [5]byte
	if _, err := io.ReadFull(rd.r, pre[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(rd.r, pre[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated record prefix: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(pre[1:])
	if n > maxRecordLen {
		return 0, nil, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	if cap(rd.scratch) < int(n) {
		rd.scratch = make([]byte, n)
	}
	buf := rd.scratch[:n]
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated record payload: %v", ErrCorrupt, err)
	}
	return RecType(pre[0]), buf, nil
}

// Next decodes the next known record, transparently skipping unknown
// types (forward compatibility within a version). It returns io.EOF at a
// clean end of log. Byte-slice fields alias the reader's scratch buffer
// until the following Next call.
func (rd *Reader) Next() (Rec, error) {
	for {
		t, payload, err := rd.next()
		if err != nil {
			return Rec{}, err
		}
		d := decoder{b: payload}
		rec := Rec{Type: t}
		switch t {
		case RecHeader:
			h, err := decodeHeader(payload)
			if err != nil {
				return Rec{}, err
			}
			rd.hdr, rd.hasHdr = h, true
			return rec, nil
		case RecTick:
			rec.Now = d.f64()
		case RecRecord:
			rec.Now = d.f64()
			rec.Content = d.i64()
			rec.N = d.i32()
			rec.LocalTime = d.f64()
		case RecChat:
			rec.Now = d.f64()
			rec.Seq = d.u32()
			rec.ADCLocal = d.f64()
			rec.Encoded = d.bytes()
		case RecMediaOut:
			rec.Stream = uint8(d.u32())
			rec.Seq = d.u32()
			rec.Content = d.i64()
			rec.ContentOff = d.i32()
			rec.Size = d.i32()
		case RecMarkerInjected, RecMarkerExpired:
			rec.Content = d.i64()
		case RecMarkerMatched:
			rec.Content = d.i64()
			rec.LocalTime = d.f64()
		case RecChatConcealed:
			rec.Seq = d.u32()
			rec.LocalTime = d.f64()
		case RecISD:
			rec.Now = d.f64()
			rec.M.ISDSeconds = d.f64()
			rec.M.DetectionTime = d.f64()
			rec.M.MarkerTime = d.f64()
			rec.M.Strength = d.f64()
		case RecAction:
			rec.Now = d.f64()
			rec.Action.Stream = compensator.Stream(d.i32())
			rec.Action.InsertFrames = d.i32()
			rec.Action.SkipFrames = d.i32()
			rec.Action.InsertSamples = d.i32()
			rec.Action.SkipSamples = d.i32()
		case RecResample:
			rec.Now = d.f64()
			rec.Resample.Stream = compensator.Stream(d.i32())
			rec.Resample.PPM = d.f64()
		default:
			continue // unknown type: skip
		}
		if d.err != nil {
			return Rec{}, d.err
		}
		return rec, nil
	}
}
