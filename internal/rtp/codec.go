package rtp

import (
	"encoding/binary"
	"fmt"

	"ekho/internal/transport"
)

// Encoder is the RTP wire encoder (transport.WireEncoder): each Ekho
// packet becomes one RTP packet whose sequence number is the low 16 bits
// of the packet's own Ekho sequence and whose timestamp is the session
// frame clock (seq × 960 samples). Deriving both from the payload keeps
// the encoder stateless and shareable across sessions, and makes the
// wire bytes a pure function of the packet — the property the RTP↔v2
// equivalence and replay tests rely on.
type Encoder struct{}

// Wire implements transport.WireEncoder.
func (Encoder) Wire() transport.Wire { return transport.WireRTP }

// AppendMedia implements transport.WireEncoder.
func (Encoder) AppendMedia(dst []byte, m transport.Media) ([]byte, error) {
	if len(m.Samples) > transport.MaxCount {
		return dst, fmt.Errorf("%w: %d samples > %d", transport.ErrOversize, len(m.Samples), transport.MaxCount)
	}
	if HeaderLen+transport.MediaBodyLen(m) > transport.MaxDatagram {
		return dst, fmt.Errorf("%w: media datagram with %d samples > %d bytes",
			transport.ErrOversize, len(m.Samples), transport.MaxDatagram)
	}
	dst = AppendHeader(dst, Header{
		PayloadType: PTMedia, Seq: uint16(m.Seq), Timestamp: mediaTimestamp(m.Seq), SSRC: m.Session})
	dst, _ = transport.AppendMediaBody(dst, m) // counts pre-checked
	return dst, nil
}

// AppendChat implements transport.WireEncoder.
func (Encoder) AppendChat(dst []byte, c transport.Chat) ([]byte, error) {
	if len(c.Records) > transport.MaxCount {
		return dst, fmt.Errorf("%w: %d playback records > %d", transport.ErrOversize, len(c.Records), transport.MaxCount)
	}
	if len(c.Encoded) > transport.MaxCount {
		return dst, fmt.Errorf("%w: %d encoded bytes > %d", transport.ErrOversize, len(c.Encoded), transport.MaxCount)
	}
	if HeaderLen+transport.ChatBodyLen(c) > transport.MaxDatagram {
		return dst, fmt.Errorf("%w: chat datagram > %d bytes", transport.ErrOversize, transport.MaxDatagram)
	}
	dst = AppendHeader(dst, Header{
		PayloadType: PTChat, Seq: uint16(c.Seq), Timestamp: mediaTimestamp(c.Seq), SSRC: c.Session})
	dst, _ = transport.AppendChatBody(dst, c)
	return dst, nil
}

// AppendHello implements transport.WireEncoder.
func (Encoder) AppendHello(dst []byte, h transport.Hello) []byte {
	dst = AppendHeader(dst, Header{
		PayloadType: PTHello, Seq: uint16(h.Seq), Timestamp: mediaTimestamp(h.Seq), SSRC: h.Session})
	return append(dst, byte(h.Role))
}

// AppendBye implements transport.WireEncoder.
func (Encoder) AppendBye(dst []byte, b transport.Bye) []byte {
	return AppendHeader(dst, Header{
		PayloadType: PTBye, Seq: uint16(b.Seq), Timestamp: mediaTimestamp(b.Seq), SSRC: b.Session})
}

// AppendBusy implements transport.WireEncoder.
func (Encoder) AppendBusy(dst []byte, b transport.Busy) []byte {
	dst = AppendHeader(dst, Header{
		PayloadType: PTBusy, Seq: uint16(b.Seq), Timestamp: mediaTimestamp(b.Seq), SSRC: b.Session})
	dst = binary.LittleEndian.AppendUint32(dst, b.Active)
	return binary.LittleEndian.AppendUint32(dst, b.Capacity)
}

// maxStreams bounds the per-socket depacketizer map so hostile SSRC
// churn cannot grow the heap. Packets past the cap still decode, with a
// stateless (cycle-0) sequence extension.
const maxStreams = 8192

// Codec is a per-socket transport.WireCodec: the stateless RTP Encoder
// plus a sniffing decoder that demultiplexes inbound datagrams by
// framing — RTP version bits versus the Ekho v2 magic — and, for RTP,
// onto per-(SSRC, payload type) AudioDepacketizers for sequence
// reconstruction. A Codec belongs to one receive loop (stateful, not
// locked). With both framings accepted (the default) a server socket
// serves v2 and RTP clients side by side.
type Codec struct {
	Encoder
	// AcceptV2 / AcceptRTP gate which framings decode; disabling one
	// turns its datagrams into decode errors (dropped as strays).
	AcceptV2  bool
	AcceptRTP bool

	v2       transport.V2
	streams  map[uint64]*AudioDepacketizer
	overflow uint64 // packets decoded statelessly past maxStreams
}

// NewCodec returns a mux accepting both framings.
func NewCodec() *Codec {
	return &Codec{AcceptV2: true, AcceptRTP: true, streams: make(map[uint64]*AudioDepacketizer)}
}

// NewCodecFor returns a mux accepting only the given framing (still
// encoding RTP; use transport.V2 for a v2-only endpoint).
func NewCodecFor(w transport.Wire) *Codec {
	c := NewCodec()
	c.AcceptV2 = w == transport.WireV2
	c.AcceptRTP = w == transport.WireRTP
	return c
}

// DecodeInto implements transport.Decoder with the arena contract:
// payload slice capacity in msg is reused, nothing aliases b, and on
// error the retained capacity is parked back in msg.
func (c *Codec) DecodeInto(msg *transport.Message, b []byte) error {
	if len(b) >= 2 && binary.LittleEndian.Uint16(b) == transport.Magic {
		if !c.AcceptV2 {
			return fmt.Errorf("%w: v2 framing disabled", transport.ErrBadPacket)
		}
		return c.v2.DecodeInto(msg, b)
	}
	if !c.AcceptRTP {
		return fmt.Errorf("%w: rtp framing disabled", transport.ErrBadPacket)
	}
	return c.decodeRTP(msg, b)
}

func (c *Codec) decodeRTP(msg *transport.Message, b []byte) error {
	samples := msg.Media.Samples[:0]
	records := msg.Chat.Records[:0]
	encoded := msg.Chat.Encoded[:0]
	*msg = transport.Message{}
	park := func() {
		msg.Media.Samples, msg.Chat.Records, msg.Chat.Encoded = samples, records, encoded
	}
	h, payload, err := ParseHeader(b)
	if err != nil {
		park()
		return err
	}
	seq := uint32(h.Seq)
	if h.PayloadType == PTMedia || h.PayloadType == PTChat {
		if d := c.stream(h.SSRC, h.PayloadType); d != nil {
			if seq, err = d.Observe(h); err != nil {
				park()
				return err
			}
		} else {
			c.overflow++
		}
	}
	msg.Session, msg.Wire = h.SSRC, transport.WireRTP
	switch h.PayloadType {
	case PTMedia:
		msg.Type = transport.TypeMedia
		msg.Media, err = transport.DecodeMediaBody(samples, seq, h.SSRC, payload)
		msg.Chat.Records, msg.Chat.Encoded = records, encoded
	case PTChat:
		msg.Type = transport.TypeChat
		msg.Chat, err = transport.DecodeChatBody(records, encoded, seq, h.SSRC, payload)
		msg.Media.Samples = samples
	default:
		park()
		switch h.PayloadType {
		case PTHello:
			msg.Type = transport.TypeHello
			msg.Hello, err = transport.DecodeHello(seq, h.SSRC, payload)
		case PTBye:
			msg.Type = transport.TypeBye
			msg.Bye = transport.Bye{Seq: seq, Session: h.SSRC}
		case PTBusy:
			msg.Type = transport.TypeBusy
			msg.Busy, err = transport.DecodeBusy(seq, h.SSRC, payload)
		default:
			err = fmt.Errorf("%w: unknown payload type %d", ErrBadPacket, h.PayloadType)
		}
	}
	return err
}

// stream returns the depacketizer for one (SSRC, payload type) flow,
// creating it on first sight. Control payload types carry no stream
// state (their sequence numbers are effectively constant), so only media
// and chat flows occupy map entries. Returns nil past the stream cap.
func (c *Codec) stream(ssrc uint32, pt uint8) *AudioDepacketizer {
	key := uint64(ssrc)<<8 | uint64(pt)
	if d, ok := c.streams[key]; ok {
		return d
	}
	if len(c.streams) >= maxStreams {
		return nil
	}
	d := NewAudioDepacketizer(ssrc)
	c.streams[key] = d
	return d
}

// Forget implements transport.Decoder: it drops the per-stream state for a
// session's flows (both payload types). The hub calls it, on its receive
// loop, when a session ends, so long-lived sockets do not accumulate dead
// streams until the stream cap.
func (c *Codec) Forget(ssrc uint32) {
	delete(c.streams, uint64(ssrc)<<8|uint64(PTMedia))
	delete(c.streams, uint64(ssrc)<<8|uint64(PTChat))
}

// Stats aggregates the depacketizer counters across every live stream,
// plus the count of packets decoded past the stream cap.
func (c *Codec) Stats() (agg DepacketizerStats, overflow uint64) {
	for _, d := range c.streams {
		s := d.Stats()
		agg.Packets += s.Packets
		agg.Reordered += s.Reordered
		agg.Lost += s.Lost
		agg.Duplicates += s.Duplicates
		agg.WrongSSRC += s.WrongSSRC
	}
	return agg, c.overflow
}
