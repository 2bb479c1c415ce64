package rtp

import (
	"testing"

	"ekho/internal/transport"
)

// FuzzParseHeader throws arbitrary bytes at the RTP header parser: it
// must never panic, and whatever it accepts must re-encode to a header
// that parses back identically.
func FuzzParseHeader(f *testing.F) {
	f.Add(AppendHeader(nil, Header{PayloadType: PTMedia, Seq: 1, Timestamp: 960, SSRC: 7}))
	f.Add(AppendHeader(nil, Header{Marker: true, PayloadType: PTChat, Seq: 0xFFFF, SSRC: 1}))
	f.Add([]byte{0x80})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := ParseHeader(b)
		if err != nil {
			return
		}
		if len(payload) > len(b) {
			t.Fatalf("payload %d bytes from %d-byte packet", len(payload), len(b))
		}
		// Re-encode (the encoder never emits CSRCs, extensions or padding,
		// so clear the padding flag) and parse back.
		h2 := h
		h2.Padding = false
		h3, p3, err := ParseHeader(append(AppendHeader(nil, h2), payload...))
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		if h3 != h2 || string(p3) != string(payload) {
			t.Fatalf("round trip drifted: %+v/%q -> %+v/%q", h2, payload, h3, p3)
		}
	})
}

// FuzzCodecDecode drives the sniffing codec with arbitrary datagrams:
// decode must never panic regardless of framing, and a success must
// label the message with a known wire.
func FuzzCodecDecode(f *testing.F) {
	f.Add(transport.AppendHello(nil, transport.Hello{Session: 1, Role: transport.RoleScreen}))
	f.Add(Encoder{}.AppendHello(nil, transport.Hello{Session: 1, Role: transport.RoleController}))
	if b, err := (Encoder{}).AppendMedia(nil, transport.Media{Seq: 1, Session: 2, ContentStart: -1, Samples: []int16{1, 2, 3}}); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := NewCodec()
		var msg transport.Message
		if err := c.DecodeInto(&msg, b); err != nil {
			return
		}
		if msg.Wire != transport.WireV2 && msg.Wire != transport.WireRTP {
			t.Fatalf("decoded message has unknown wire %v", msg.Wire)
		}
	})
}
