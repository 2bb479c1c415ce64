// Package transport implements Ekho's wire protocol over real UDP sockets
// (net.PacketConn) for the live demo binaries: media frames downstream,
// chat audio plus dual timestamps upstream, and a small control channel.
// It mirrors the in-process simulator's payloads so the same server logic
// drives both (the simulator exercises the algorithms at scale; this
// package proves the system runs over an actual network stack).
//
// Wire format (all little-endian):
//
//	header:  magic u16 | type u8 | flags u8 | seq u32 | [session u32]
//	media:   header | contentStart i64 | contentOff u16 | nSamples u16 | samples i16...
//	chat:    header | adcLocalMicros i64 | nRecords u16 |
//	         records {contentStart i64, localMicros i64, n u16}... |
//	         nEncoded u16 | encoded bytes...
//	hello:   header | role u8
//	bye:     header
//	busy:    header | active u32 | capacity u32
//	marker:  header | contentStart i64   (server -> estimator internal use)
//
// Protocol versioning: the original (v1) header is 8 bytes with flags
// always zero. Version 2 adds a 32-bit session identifier for
// multi-tenant servers (internal/hub): when FlagSession is set in the
// flags byte, the header carries a trailing session u32. Packets with
// session 0 are encoded in the v1 format, so v1 endpoints and v2
// endpoints interoperate for the default session; unknown flag bits are
// ignored on decode for forward compatibility.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"
)

// Magic identifies Ekho datagrams.
const Magic = 0xE509

// PacketType enumerates wire message kinds.
type PacketType uint8

// Wire message kinds.
const (
	TypeHello PacketType = iota + 1
	TypeMedia
	TypeChat
	TypeBye
	// TypeBusy rejects a Hello when the server is at capacity or
	// draining (protocol v2, internal/hub).
	TypeBusy
)

// FlagSession marks a v2 header carrying a trailing session u32.
const FlagSession = 0x01

// Role identifies an endpoint in Hello packets.
type Role uint8

// Endpoint roles.
const (
	RoleScreen Role = iota + 1
	RoleController
)

// Media is one downlink audio frame.
type Media struct {
	Seq          uint32
	Session      uint32
	ContentStart int64 // -1 for inserted silence
	ContentOff   uint16
	Samples      []int16
}

// PlaybackRecord reports accessory playback timing (§5.1: the client sends
// back playback timestamps T_j^accessory).
type PlaybackRecord struct {
	ContentStart int64
	LocalMicros  int64
	N            uint16
}

// Chat is one uplink packet: encoded microphone audio with capture
// timestamp and piggybacked playback records.
type Chat struct {
	Seq       uint32
	Session   uint32
	ADCMicros int64
	Records   []PlaybackRecord
	Encoded   []byte
}

// Hello announces an endpoint and its role.
type Hello struct {
	Seq     uint32
	Session uint32
	Role    Role
}

// Bye announces that an endpoint is leaving its session.
type Bye struct {
	Seq     uint32
	Session uint32
}

// Busy rejects a Hello: the server cannot admit the session.
type Busy struct {
	Seq     uint32
	Session uint32
	// Active and Capacity report the server's load at rejection time.
	Active   uint32
	Capacity uint32
}

// ErrBadPacket reports an undecodable datagram.
var ErrBadPacket = errors.New("transport: bad packet")

// ErrOversize reports a payload that cannot be represented on the wire
// (a count exceeding its u16 field, or a datagram above the 64 KiB
// receive limit). Encoders return it instead of silently truncating.
var ErrOversize = errors.New("transport: payload exceeds wire limits")

// MaxDatagram bounds decode allocations and encoded datagram size for
// every wire codec sharing the socket (alternative codecs add their own
// header to the same payload bodies, so they share the limit).
const MaxDatagram = 64 * 1024

// maxDatagram is the internal alias used by the v2 encoders.
const maxDatagram = MaxDatagram

// MaxCount is the largest value a u16 count field can carry (sample,
// record and encoded-byte counts in the payload bodies).
const MaxCount = 1<<16 - 1

// maxCount is the internal alias used by the v2 encoders.
const maxCount = MaxCount

// Wire identifies a wire codec: how Ekho payloads are framed on the
// socket. The framing is a per-session choice made by the client's first
// packet; payload bodies are identical across codecs.
type Wire uint8

// Wire codecs.
const (
	// WireV2 is this package's native framing (the v1/v2 header above).
	WireV2 Wire = iota
	// WireRTP is standards-shaped RTP framing (internal/rtp): a 12-byte
	// RFC 3550 header carrying the same little-endian payload bodies.
	WireRTP
)

// String implements fmt.Stringer.
func (w Wire) String() string {
	switch w {
	case WireV2:
		return "v2"
	case WireRTP:
		return "rtp"
	default:
		return fmt.Sprintf("wire(%d)", uint8(w))
	}
}

// ParseWire maps a -wire flag value to a Wire.
func ParseWire(s string) (Wire, bool) {
	switch s {
	case "v2":
		return WireV2, true
	case "rtp":
		return WireRTP, true
	default:
		return 0, false
	}
}

// Decoder turns one datagram into a Message. Implementations may be
// stateful (the RTP decoder tracks per-stream sequence state), so a
// Decoder instance belongs to exactly one receive loop. DecodeInto must
// follow this package's arena contract: reuse the capacity of msg's
// payload slices, never alias b, and park the retained capacity back in
// msg on error. Forget drops whatever per-flow state the decoder keeps for
// an ended session; like DecodeInto it runs on the owning receive loop.
type Decoder interface {
	DecodeInto(msg *Message, b []byte) error
	Forget(session uint32)
}

// WireEncoder serializes outbound packets in one wire framing.
// Implementations are stateless and shareable across sessions: sequence
// numbers and timestamps derive from the payloads themselves, which
// keeps encodes deterministic (replay- and equivalence-friendly).
type WireEncoder interface {
	// Wire names the framing this encoder emits.
	Wire() Wire
	// AppendMedia/AppendChat append one encoded packet to dst, returning
	// the extended slice (dst unmodified on error), like AppendMedia and
	// AppendChat in this package.
	AppendMedia(dst []byte, m Media) ([]byte, error)
	AppendChat(dst []byte, c Chat) ([]byte, error)
	// Control packets are small and cannot fail to encode.
	AppendHello(dst []byte, h Hello) []byte
	AppendBye(dst []byte, b Bye) []byte
	AppendBusy(dst []byte, b Busy) []byte
}

// WireCodec is a full wire codec: both directions of one framing (or,
// for sniffing decoders, several accepted framings behind one Decoder).
type WireCodec interface {
	WireEncoder
	Decoder
}

// V2 is the native wire codec as a WireCodec value: the same stateless
// package-level encode/decode functions behind the seam interface.
type V2 struct{}

// Wire implements WireEncoder.
func (V2) Wire() Wire { return WireV2 }

// AppendMedia implements WireEncoder.
func (V2) AppendMedia(dst []byte, m Media) ([]byte, error) { return AppendMedia(dst, m) }

// AppendChat implements WireEncoder.
func (V2) AppendChat(dst []byte, c Chat) ([]byte, error) { return AppendChat(dst, c) }

// AppendHello implements WireEncoder.
func (V2) AppendHello(dst []byte, h Hello) []byte { return AppendHello(dst, h) }

// AppendBye implements WireEncoder.
func (V2) AppendBye(dst []byte, b Bye) []byte { return AppendBye(dst, b) }

// AppendBusy implements WireEncoder.
func (V2) AppendBusy(dst []byte, b Busy) []byte { return AppendBusy(dst, b) }

// DecodeInto implements Decoder.
func (V2) DecodeInto(msg *Message, b []byte) error { return DecodeInto(msg, b) }

// Forget implements Decoder: v2 decoding keeps no per-flow state.
func (V2) Forget(uint32) {}

// appendHeader appends a v1 (8-byte) or v2 (12-byte, session-flagged)
// header to dst.
func appendHeader(dst []byte, t PacketType, seq, session uint32) []byte {
	flags := byte(0)
	if session != 0 {
		flags = FlagSession
	}
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, byte(t), flags)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	if session != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, session)
	}
	return dst
}

// headerLen returns the encoded header size for the session id.
func headerLen(session uint32) int {
	if session != 0 {
		return 12
	}
	return 8
}

func parseHeader(b []byte) (t PacketType, seq, session uint32, body []byte, err error) {
	if len(b) < 8 || binary.LittleEndian.Uint16(b[0:]) != Magic {
		return 0, 0, 0, nil, ErrBadPacket
	}
	t = PacketType(b[2])
	flags := b[3]
	seq = binary.LittleEndian.Uint32(b[4:])
	body = b[8:]
	if flags&FlagSession != 0 {
		if len(body) < 4 {
			return 0, 0, 0, nil, fmt.Errorf("%w: truncated session header", ErrBadPacket)
		}
		session = binary.LittleEndian.Uint32(body)
		body = body[4:]
	}
	return t, seq, session, body, nil
}

// EncodeMedia serializes a media frame. It refuses frames whose sample
// count does not fit the wire's u16 field or whose encoding would exceed
// the datagram size limit.
func EncodeMedia(m Media) ([]byte, error) {
	return AppendMedia(nil, m)
}

// AppendMedia is EncodeMedia appending to dst and returning the extended
// slice; the per-tick send path reuses one packet buffer per session. On
// error dst is returned unmodified.
func AppendMedia(dst []byte, m Media) ([]byte, error) {
	if len(m.Samples) > maxCount {
		return dst, fmt.Errorf("%w: %d samples > %d", ErrOversize, len(m.Samples), maxCount)
	}
	if headerLen(m.Session)+12+2*len(m.Samples) > maxDatagram {
		return dst, fmt.Errorf("%w: media datagram with %d samples > %d bytes", ErrOversize, len(m.Samples), maxDatagram)
	}
	dst = appendHeader(dst, TypeMedia, m.Seq, m.Session)
	return appendMediaBody(dst, m), nil
}

// MediaBodyLen returns the encoded size of a media payload body
// (everything after the wire header, identical across codecs).
func MediaBodyLen(m Media) int { return 12 + 2*len(m.Samples) }

// AppendMediaBody appends the codec-independent media payload body to
// dst: contentStart i64 | contentOff u16 | nSamples u16 | samples i16...
// (little-endian). Alternative wire codecs prepend their own header. The
// caller is responsible for the MaxCount / datagram-size checks (see
// AppendMedia); on violation dst is returned unmodified with ErrOversize.
func AppendMediaBody(dst []byte, m Media) ([]byte, error) {
	if len(m.Samples) > maxCount {
		return dst, fmt.Errorf("%w: %d samples > %d", ErrOversize, len(m.Samples), maxCount)
	}
	return appendMediaBody(dst, m), nil
}

func appendMediaBody(dst []byte, m Media) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.ContentStart))
	dst = binary.LittleEndian.AppendUint16(dst, m.ContentOff)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Samples)))
	for _, s := range m.Samples {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(s))
	}
	return dst
}

// DecodeMedia parses a media frame body (after the header).
func DecodeMedia(seq, session uint32, body []byte) (Media, error) {
	return decodeMediaInto(nil, seq, session, body)
}

// DecodeMediaBody is decodeMediaInto for alternative wire codecs: it
// parses a codec-independent media body, appending samples onto the
// given (capacity-reused) slice. On error the retained slice is handed
// back via Media.Samples so the caller's arena slot keeps its capacity.
func DecodeMediaBody(samples []int16, seq, session uint32, body []byte) (Media, error) {
	return decodeMediaInto(samples, seq, session, body)
}

// decodeMediaInto parses a media body, appending samples onto the given
// (capacity-reused) slice. The samples are copied out of body, never
// aliased. On error the retained slice is handed back via Media.Samples
// so the caller's arena slot keeps its capacity.
func decodeMediaInto(samples []int16, seq, session uint32, body []byte) (Media, error) {
	if len(body) < 12 {
		return Media{Samples: samples}, ErrBadPacket
	}
	m := Media{Seq: seq, Session: session}
	m.ContentStart = int64(binary.LittleEndian.Uint64(body[0:]))
	m.ContentOff = binary.LittleEndian.Uint16(body[8:])
	n := int(binary.LittleEndian.Uint16(body[10:]))
	body = body[12:]
	if len(body) < 2*n {
		return Media{Samples: samples}, fmt.Errorf("%w: media wants %d samples, has %d bytes", ErrBadPacket, n, len(body))
	}
	for i := 0; i < n; i++ {
		samples = append(samples, int16(binary.LittleEndian.Uint16(body[2*i:])))
	}
	m.Samples = samples
	return m, nil
}

// EncodeChat serializes a chat packet. It refuses packets whose record or
// encoded-byte counts do not fit their u16 fields or whose encoding would
// exceed the datagram size limit.
func EncodeChat(c Chat) ([]byte, error) {
	return AppendChat(nil, c)
}

// AppendChat is EncodeChat appending to dst and returning the extended
// slice. On error dst is returned unmodified.
func AppendChat(dst []byte, c Chat) ([]byte, error) {
	if len(c.Records) > maxCount {
		return dst, fmt.Errorf("%w: %d playback records > %d", ErrOversize, len(c.Records), maxCount)
	}
	if len(c.Encoded) > maxCount {
		return dst, fmt.Errorf("%w: %d encoded bytes > %d", ErrOversize, len(c.Encoded), maxCount)
	}
	if headerLen(c.Session)+10+18*len(c.Records)+2+len(c.Encoded) > maxDatagram {
		return dst, fmt.Errorf("%w: chat datagram > %d bytes", ErrOversize, maxDatagram)
	}
	dst = appendHeader(dst, TypeChat, c.Seq, c.Session)
	return appendChatBody(dst, c), nil
}

// ChatBodyLen returns the encoded size of a chat payload body.
func ChatBodyLen(c Chat) int { return 10 + 18*len(c.Records) + 2 + len(c.Encoded) }

// AppendChatBody appends the codec-independent chat payload body to dst
// (see the package comment for the layout). Like AppendMediaBody, on a
// count violation dst is returned unmodified with ErrOversize; datagram
// sizing is the wire codec's job.
func AppendChatBody(dst []byte, c Chat) ([]byte, error) {
	if len(c.Records) > maxCount {
		return dst, fmt.Errorf("%w: %d playback records > %d", ErrOversize, len(c.Records), maxCount)
	}
	if len(c.Encoded) > maxCount {
		return dst, fmt.Errorf("%w: %d encoded bytes > %d", ErrOversize, len(c.Encoded), maxCount)
	}
	return appendChatBody(dst, c), nil
}

func appendChatBody(dst []byte, c Chat) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.ADCMicros))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Records)))
	for _, r := range c.Records {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ContentStart))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.LocalMicros))
		dst = binary.LittleEndian.AppendUint16(dst, r.N)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Encoded)))
	dst = append(dst, c.Encoded...)
	return dst
}

// DecodeChat parses a chat packet body.
func DecodeChat(seq, session uint32, body []byte) (Chat, error) {
	return decodeChatInto(nil, nil, seq, session, body)
}

// DecodeChatBody is decodeChatInto for alternative wire codecs: it
// parses a codec-independent chat body, appending records and encoded
// bytes onto the given (capacity-reused) slices. On error the retained
// slices are handed back via the Chat fields.
func DecodeChatBody(records []PlaybackRecord, encoded []byte, seq, session uint32, body []byte) (Chat, error) {
	return decodeChatInto(records, encoded, seq, session, body)
}

// decodeChatInto parses a chat body, appending records and encoded bytes
// onto the given (capacity-reused) slices. The payload is copied out of
// body, never aliased. On error the retained slices are handed back via
// the Chat fields so the caller's arena slot keeps its capacity.
func decodeChatInto(records []PlaybackRecord, encoded []byte, seq, session uint32, body []byte) (Chat, error) {
	if len(body) < 10 {
		return Chat{Records: records, Encoded: encoded}, ErrBadPacket
	}
	c := Chat{Seq: seq, Session: session}
	c.ADCMicros = int64(binary.LittleEndian.Uint64(body[0:]))
	nr := int(binary.LittleEndian.Uint16(body[8:]))
	body = body[10:]
	if len(body) < nr*18 {
		return Chat{Records: records, Encoded: encoded}, fmt.Errorf("%w: chat wants %d records", ErrBadPacket, nr)
	}
	for i := 0; i < nr; i++ {
		records = append(records, PlaybackRecord{
			ContentStart: int64(binary.LittleEndian.Uint64(body[0:])),
			LocalMicros:  int64(binary.LittleEndian.Uint64(body[8:])),
			N:            binary.LittleEndian.Uint16(body[16:]),
		})
		body = body[18:]
	}
	if len(body) < 2 {
		return Chat{Records: records, Encoded: encoded}, ErrBadPacket
	}
	ne := int(binary.LittleEndian.Uint16(body[0:]))
	body = body[2:]
	if len(body) < ne {
		return Chat{Records: records, Encoded: encoded}, fmt.Errorf("%w: chat wants %d encoded bytes", ErrBadPacket, ne)
	}
	c.Records = records
	c.Encoded = append(encoded, body[:ne]...)
	return c, nil
}

// EncodeHello serializes a hello.
func EncodeHello(h Hello) []byte {
	return AppendHello(make([]byte, 0, 64), h)
}

// AppendHello is EncodeHello appending to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendHeader(dst, TypeHello, h.Seq, h.Session)
	return append(dst, byte(h.Role))
}

// DecodeHello parses a hello body.
func DecodeHello(seq, session uint32, body []byte) (Hello, error) {
	if len(body) < 1 {
		return Hello{}, ErrBadPacket
	}
	return Hello{Seq: seq, Session: session, Role: Role(body[0])}, nil
}

// EncodeBye serializes a bye.
func EncodeBye(b Bye) []byte {
	return AppendBye(make([]byte, 0, 64), b)
}

// AppendBye is EncodeBye appending to dst.
func AppendBye(dst []byte, b Bye) []byte {
	return appendHeader(dst, TypeBye, b.Seq, b.Session)
}

// EncodeBusy serializes a busy reject.
func EncodeBusy(b Busy) []byte {
	return AppendBusy(make([]byte, 0, 64), b)
}

// AppendBusy is EncodeBusy appending to dst.
func AppendBusy(dst []byte, b Busy) []byte {
	dst = appendHeader(dst, TypeBusy, b.Seq, b.Session)
	dst = binary.LittleEndian.AppendUint32(dst, b.Active)
	dst = binary.LittleEndian.AppendUint32(dst, b.Capacity)
	return dst
}

// DecodeBusy parses a busy body.
func DecodeBusy(seq, session uint32, body []byte) (Busy, error) {
	if len(body) < 8 {
		return Busy{}, fmt.Errorf("%w: short busy body", ErrBadPacket)
	}
	return Busy{
		Seq:      seq,
		Session:  session,
		Active:   binary.LittleEndian.Uint32(body[0:]),
		Capacity: binary.LittleEndian.Uint32(body[4:]),
	}, nil
}

// Message is a decoded incoming datagram plus its sender.
type Message struct {
	Type PacketType
	// Session is the header's session identifier (0 for v1 packets; the
	// SSRC for RTP framing).
	Session uint32
	// Wire records which framing carried the datagram, set by the
	// decoder. Servers latch it from a session's first Hello so replies
	// go back in the framing the client speaks.
	Wire  Wire
	Media Media
	Chat  Chat
	Hello Hello
	Bye   Bye
	Busy  Busy
	From  net.Addr
}

// Decode parses any Ekho datagram. The returned message owns its data:
// nothing in it aliases b, so the caller's receive buffer is free to be
// reused for the next datagram.
func Decode(b []byte) (Message, error) {
	var msg Message
	err := DecodeInto(&msg, b)
	return msg, err
}

// DecodeInto is Decode reusing msg as a decode arena: the capacity of
// msg's payload slices (Media.Samples, Chat.Records, Chat.Encoded) is
// kept across calls, so a steady-state receive loop that recycles its
// Message slots decodes without allocating. Every other field is reset.
// Like Decode, the result never aliases b. On error msg is left zeroed
// (payload capacity still retained).
func DecodeInto(msg *Message, b []byte) error {
	samples := msg.Media.Samples[:0]
	records := msg.Chat.Records[:0]
	encoded := msg.Chat.Encoded[:0]
	*msg = Message{}
	t, seq, session, body, err := parseHeader(b)
	if err != nil {
		// Park the retained capacity so the slot stays reusable.
		msg.Media.Samples, msg.Chat.Records, msg.Chat.Encoded = samples, records, encoded
		return err
	}
	msg.Type, msg.Session = t, session
	switch t {
	case TypeMedia:
		msg.Media, err = decodeMediaInto(samples, seq, session, body)
		msg.Chat.Records, msg.Chat.Encoded = records, encoded
	case TypeChat:
		msg.Chat, err = decodeChatInto(records, encoded, seq, session, body)
		msg.Media.Samples = samples
	default:
		msg.Media.Samples, msg.Chat.Records, msg.Chat.Encoded = samples, records, encoded
		switch t {
		case TypeHello:
			msg.Hello, err = DecodeHello(seq, session, body)
		case TypeBye:
			msg.Bye = Bye{Seq: seq, Session: session}
		case TypeBusy:
			msg.Busy, err = DecodeBusy(seq, session, body)
		default:
			err = fmt.Errorf("%w: unknown type %d", ErrBadPacket, t)
		}
	}
	return err
}

// Conn wraps a UDP socket with Ekho framing.
type Conn struct {
	pc  net.PacketConn
	buf []byte
	// dec decodes inbound datagrams (default: the native V2 codec).
	// SetDecoder swaps in a sniffing mux (rtp.NewCodec) to accept
	// alternative framings on the same socket.
	dec Decoder
}

// Listen opens a UDP socket on the address (e.g. "127.0.0.1:0").
func Listen(addr string) (*Conn, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return &Conn{pc: pc, buf: make([]byte, maxDatagram), dec: V2{}}, nil
}

// SetDecoder replaces the framing decoder for inbound datagrams. It must
// be called before the receive loops start: the decoder may be stateful
// and is used without locking.
func (c *Conn) SetDecoder(d Decoder) {
	if d != nil {
		c.dec = d
	}
}

// Forget drops the decoder's per-flow state for an ended session. Like
// the decoder itself it is unlocked: call it from the receive loop.
func (c *Conn) Forget(session uint32) { c.dec.Forget(session) }

// LocalAddr returns the bound address.
func (c *Conn) LocalAddr() net.Addr { return c.pc.LocalAddr() }

// Close releases the socket.
func (c *Conn) Close() error { return c.pc.Close() }

// SendTo transmits an encoded datagram.
func (c *Conn) SendTo(b []byte, to net.Addr) error {
	_, err := c.pc.WriteTo(b, to)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// Recv blocks (until deadline) for the next decodable datagram.
func (c *Conn) Recv(deadline time.Time) (Message, error) {
	if err := c.pc.SetReadDeadline(deadline); err != nil {
		return Message{}, fmt.Errorf("transport: deadline: %w", err)
	}
	for {
		n, from, err := c.pc.ReadFrom(c.buf)
		if err != nil {
			return Message{}, err
		}
		var msg Message
		if err := c.dec.DecodeInto(&msg, c.buf[:n]); err != nil {
			continue // ignore stray datagrams
		}
		msg.From = from
		return msg, nil
	}
}

// Packet is one outbound datagram for batched sends: an encoded wire
// buffer plus its destination.
type Packet struct {
	Buf []byte
	To  net.Addr
}

// recvDrainWindow is how long RecvBatch keeps draining the socket after
// its first datagram before handing back a partial batch. Reads inside
// the window return immediately while datagrams are queued in the kernel
// buffer, so under load the window never expires; when the socket runs
// dry it bounds the extra latency a batch can add.
const recvDrainWindow = 100 * time.Microsecond

// RecvBatch reads a burst of datagrams: one blocking read (until
// deadline), then greedy short-fuse reads until the batch fills or the
// socket runs dry. It decodes each datagram into the corresponding msgs
// slot with DecodeInto, so a caller that recycles its batch receives
// without allocating in steady state. It returns the number of slots
// filled; undecodable datagrams are skipped.
//
// From is materialized only for control packets (Hello, Bye): data-plane
// packets arrive with From == nil, keeping the hot path allocation-free
// (servers act on a data packet's session id, not its source address).
func (c *Conn) RecvBatch(deadline time.Time, msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	uc, _ := c.pc.(*net.UDPConn)
	if err := c.pc.SetReadDeadline(deadline); err != nil {
		return 0, fmt.Errorf("transport: deadline: %w", err)
	}
	n := 0
	for n < len(msgs) {
		var (
			nb   int
			ap   netip.AddrPort
			from net.Addr
			err  error
		)
		if uc != nil {
			nb, ap, err = uc.ReadFromUDPAddrPort(c.buf)
		} else {
			nb, from, err = c.pc.ReadFrom(c.buf)
		}
		if err != nil {
			if n > 0 && isDeadline(err) {
				return n, nil // batch closed by an empty socket
			}
			return n, err
		}
		if first := n == 0; first {
			// Switch to drain mode: subsequent reads return right away
			// once the kernel buffer is empty.
			if err := c.pc.SetReadDeadline(time.Now().Add(recvDrainWindow)); err != nil {
				return n, fmt.Errorf("transport: deadline: %w", err)
			}
		}
		if derr := c.dec.DecodeInto(&msgs[n], c.buf[:nb]); derr != nil {
			continue // ignore stray datagrams
		}
		switch msgs[n].Type {
		case TypeHello, TypeBye:
			if uc != nil {
				from = net.UDPAddrFromAddrPort(ap)
			}
			msgs[n].From = from
		default:
			msgs[n].From = from // nil on the UDP fast path
		}
		n++
	}
	return n, nil
}

// SendBatch transmits a burst of encoded datagrams, attempting every
// packet even after an error. It returns how many packets were sent and
// the first error encountered. Destinations that are *net.UDPAddr on a
// UDP socket take an allocation-free fast path.
func (c *Conn) SendBatch(pkts []Packet) (int, error) {
	uc, _ := c.pc.(*net.UDPConn)
	sent := 0
	var firstErr error
	for i := range pkts {
		var err error
		if ua, ok := pkts[i].To.(*net.UDPAddr); ok && uc != nil {
			// Unmap 4-in-6 so an IPv4-bound socket accepts the address.
			ap := ua.AddrPort()
			_, err = uc.WriteToUDPAddrPort(pkts[i].Buf, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
		} else {
			_, err = c.pc.WriteTo(pkts[i].Buf, pkts[i].To)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: send: %w", err)
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// isDeadline reports whether err is a read-deadline expiry.
func isDeadline(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ResolveUDP parses an address for SendTo.
func ResolveUDP(addr string) (net.Addr, error) {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	return a, nil
}
