// Package rtp implements the standards-shaped wire codec: Ekho payload
// bodies carried in RFC 3550 RTP packets instead of the native v2
// framing. The shape follows the ToxAV RTP module — stateless encoders
// (Encoder) and an AudioDepacketizer around a fixed 12-byte header —
// trimmed to what a datagram media server needs: no CSRC lists or header
// extensions are emitted (both are skipped on receive), and every Ekho
// packet fits one datagram, so there is no fragmentation layer. Encoders
// pin sequence and timestamp to the session frame clock, so encoding
// needs no per-stream state.
//
// Mapping onto RTP:
//
//   - SSRC            = Ekho session id (one media session per player);
//   - payload type    = Ekho packet kind (dynamic range 96-127: media 96,
//     chat 97, and the control kinds below);
//   - sequence number = low 16 bits of the Ekho sequence; the
//     depacketizer reconstructs the full 32-bit value from rollover
//     cycles, tolerating reordering;
//   - timestamp       = media clock: sequence × 960 samples (20 ms
//     frames at 48 kHz), for media and chat alike.
//
// Wire interop with the v2 framing is sniffable: an RTP packet starts
// with version bits 10 in the top of byte 0, while an Ekho v2 datagram
// starts with the little-endian magic 0xE509 (byte 0 = 0x09, top bits
// 00), so one socket can serve both codecs (see Codec).
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ekho/internal/audio"
)

// Version is the only RTP version in existence.
const Version = 2

// HeaderLen is the fixed RTP header size (no CSRCs, no extension).
const HeaderLen = 12

// Dynamic payload types (RFC 3551 §6 reserves 96-127 for dynamic
// assignment) carrying each Ekho packet kind.
const (
	PTMedia uint8 = 96
	PTChat  uint8 = 97
	PTHello uint8 = 100
	PTBye   uint8 = 101
	PTBusy  uint8 = 102
)

// ErrNotRTP reports a datagram whose version bits are not RTP's.
var ErrNotRTP = errors.New("rtp: not an RTP packet")

// ErrBadPacket reports a structurally invalid RTP packet.
var ErrBadPacket = errors.New("rtp: bad packet")

// ErrWrongSource reports a packet whose SSRC does not match the
// depacketizer's stream.
var ErrWrongSource = errors.New("rtp: wrong SSRC")

// Header is the fixed part of an RTP packet.
type Header struct {
	Padding     bool
	Marker      bool
	PayloadType uint8
	// Seq is the 16-bit wire sequence number.
	Seq uint16
	// Timestamp is the media-clock sampling instant.
	Timestamp uint32
	// SSRC identifies the synchronization source (the Ekho session).
	SSRC uint32
}

// AppendHeader appends the 12-byte encoding of h to dst.
func AppendHeader(dst []byte, h Header) []byte {
	b0 := byte(Version << 6)
	if h.Padding {
		b0 |= 0x20
	}
	b1 := h.PayloadType & 0x7F
	if h.Marker {
		b1 |= 0x80
	}
	dst = append(dst, b0, b1)
	dst = binary.BigEndian.AppendUint16(dst, h.Seq)
	dst = binary.BigEndian.AppendUint32(dst, h.Timestamp)
	return binary.BigEndian.AppendUint32(dst, h.SSRC)
}

// ParseHeader parses an RTP packet, returning the header and the payload
// with CSRC list, header extension and padding stripped. The payload
// aliases b.
func ParseHeader(b []byte) (Header, []byte, error) {
	if len(b) < HeaderLen {
		return Header{}, nil, fmt.Errorf("%w: %d bytes < header", ErrBadPacket, len(b))
	}
	if b[0]>>6 != Version {
		return Header{}, nil, ErrNotRTP
	}
	h := Header{
		Padding:     b[0]&0x20 != 0,
		Marker:      b[1]&0x80 != 0,
		PayloadType: b[1] & 0x7F,
		Seq:         binary.BigEndian.Uint16(b[2:]),
		Timestamp:   binary.BigEndian.Uint32(b[4:]),
		SSRC:        binary.BigEndian.Uint32(b[8:]),
	}
	p := b[HeaderLen:]
	if cc := int(b[0] & 0x0F); cc > 0 {
		if len(p) < 4*cc {
			return Header{}, nil, fmt.Errorf("%w: truncated CSRC list", ErrBadPacket)
		}
		p = p[4*cc:]
	}
	if b[0]&0x10 != 0 { // header extension (RFC 3550 §5.3.1)
		if len(p) < 4 {
			return Header{}, nil, fmt.Errorf("%w: truncated extension header", ErrBadPacket)
		}
		words := int(binary.BigEndian.Uint16(p[2:]))
		p = p[4:]
		if len(p) < 4*words {
			return Header{}, nil, fmt.Errorf("%w: truncated extension body", ErrBadPacket)
		}
		p = p[4*words:]
	}
	if h.Padding {
		if len(p) == 0 {
			return Header{}, nil, fmt.Errorf("%w: padded packet with empty payload", ErrBadPacket)
		}
		pad := int(p[len(p)-1])
		if pad == 0 || pad > len(p) {
			return Header{}, nil, fmt.Errorf("%w: bad padding count %d", ErrBadPacket, pad)
		}
		p = p[:len(p)-pad]
	}
	return h, p, nil
}

// mediaTimestamp maps an Ekho sequence number onto the RTP media clock:
// packets are one 20 ms frame apart, 960 samples at 48 kHz.
func mediaTimestamp(seq uint32) uint32 { return seq * uint32(audio.FrameSamples) }

// DepacketizerStats counts what one stream's depacketizer observed.
type DepacketizerStats struct {
	// Packets counts accepted packets (including reordered arrivals).
	Packets uint64
	// Reordered counts packets that arrived behind the newest sequence
	// seen; Lost counts sequence-gap packets never seen when the stream
	// advanced past them (a later reordered arrival is not subtracted);
	// Duplicates counts re-deliveries of the newest sequence.
	Reordered  uint64
	Lost       uint64
	Duplicates uint64
	// WrongSSRC counts packets rejected for a foreign source.
	WrongSSRC uint64
}

// AudioDepacketizer consumes one RTP stream: it validates the source,
// reconstructs full 32-bit Ekho sequence numbers from the 16-bit wire
// field across rollovers, and counts reorder/loss/duplicate anomalies
// for the receiver's jitter machinery to act on.
type AudioDepacketizer struct {
	// SSRC is the accepted source; 0 means learn it from the first
	// packet.
	SSRC uint32

	learned bool
	started bool
	last    uint16 // newest wire sequence seen
	cycles  uint32 // rollover count of `last`
	stats   DepacketizerStats
}

// NewAudioDepacketizer returns a depacketizer locked to ssrc (0 = learn
// from the first packet).
func NewAudioDepacketizer(ssrc uint32) *AudioDepacketizer {
	return &AudioDepacketizer{SSRC: ssrc, learned: ssrc != 0}
}

// Observe validates a parsed header against the stream and returns the
// reconstructed 32-bit sequence number.
func (d *AudioDepacketizer) Observe(h Header) (uint32, error) {
	if !d.learned {
		d.SSRC = h.SSRC
		d.learned = true
	} else if h.SSRC != d.SSRC {
		d.stats.WrongSSRC++
		return 0, fmt.Errorf("%w: got %08x want %08x", ErrWrongSource, h.SSRC, d.SSRC)
	}
	d.stats.Packets++
	return d.extend(h.Seq), nil
}

// Stats returns the stream's cumulative anomaly counters.
func (d *AudioDepacketizer) Stats() DepacketizerStats { return d.stats }

// extend reconstructs the full 32-bit sequence from a 16-bit wire value
// using the standard RFC 3550 rollover heuristic: a forward step smaller
// than half the sequence space advances the stream (wrapping bumps the
// cycle count); anything else is a reordered packet from the current or
// previous cycle.
func (d *AudioDepacketizer) extend(s uint16) uint32 {
	if !d.started {
		d.started = true
		d.last = s
		return uint32(s)
	}
	delta := s - d.last // uint16 arithmetic: wraps
	switch {
	case delta == 0:
		d.stats.Duplicates++
		return d.cycles<<16 | uint32(s)
	case delta < 0x8000: // forward
		d.stats.Lost += uint64(delta - 1)
		if s < d.last {
			d.cycles++
		}
		d.last = s
		return d.cycles<<16 | uint32(s)
	default: // behind the newest: late arrival
		d.stats.Reordered++
		c := d.cycles
		if s > d.last && c > 0 {
			c-- // e.g. 0xFFF0 arriving just after the wrap to 0x0005
		}
		return c<<16 | uint32(s)
	}
}
