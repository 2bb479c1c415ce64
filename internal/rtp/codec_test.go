package rtp

import (
	"errors"
	"reflect"
	"testing"

	"ekho/internal/transport"
)

func testMedia() transport.Media {
	samples := make([]int16, 960)
	for i := range samples {
		samples[i] = int16(i - 480)
	}
	return transport.Media{Seq: 7, Session: 3, ContentStart: 6720, ContentOff: 12, Samples: samples}
}

func testChat() transport.Chat {
	return transport.Chat{
		Seq: 9, Session: 3, ADCMicros: 1234567,
		Records: []transport.PlaybackRecord{
			{ContentStart: 100, LocalMicros: 5000, N: 960},
			{ContentStart: 1060, LocalMicros: 25000, N: 948},
		},
		Encoded: []byte{1, 2, 3, 4, 5},
	}
}

// TestCodecRoundTripMatchesV2 encodes every packet kind with both wire
// encoders and decodes both datagrams through one sniffing Codec: the
// resulting Messages must be identical except for the Wire tag. This is
// the bit-level half of the RTP↔v2 equivalence story (the hub-level half
// lives in internal/hub's loopback equivalence test).
func TestCodecRoundTripMatchesV2(t *testing.T) {
	var v2 transport.V2
	var r Encoder
	type enc func(transport.WireEncoder) ([]byte, error)
	cases := []struct {
		name string
		enc  enc
	}{
		{"hello", func(w transport.WireEncoder) ([]byte, error) {
			return w.AppendHello(nil, transport.Hello{Seq: 1, Session: 3, Role: transport.RoleScreen}), nil
		}},
		{"media", func(w transport.WireEncoder) ([]byte, error) {
			return w.AppendMedia(nil, testMedia())
		}},
		{"chat", func(w transport.WireEncoder) ([]byte, error) {
			return w.AppendChat(nil, testChat())
		}},
		{"bye", func(w transport.WireEncoder) ([]byte, error) {
			return w.AppendBye(nil, transport.Bye{Seq: 2, Session: 3}), nil
		}},
		{"busy", func(w transport.WireEncoder) ([]byte, error) {
			return w.AppendBusy(nil, transport.Busy{Seq: 0, Session: 3, Active: 8, Capacity: 8}), nil
		}},
	}
	c := NewCodec()
	for _, tc := range cases {
		bv2, err := tc.enc(v2)
		if err != nil {
			t.Fatalf("%s: v2 encode: %v", tc.name, err)
		}
		brtp, err := tc.enc(r)
		if err != nil {
			t.Fatalf("%s: rtp encode: %v", tc.name, err)
		}
		var mv2, mrtp transport.Message
		if err := c.DecodeInto(&mv2, bv2); err != nil {
			t.Fatalf("%s: decode v2: %v", tc.name, err)
		}
		if err := c.DecodeInto(&mrtp, brtp); err != nil {
			t.Fatalf("%s: decode rtp: %v", tc.name, err)
		}
		if mv2.Wire != transport.WireV2 || mrtp.Wire != transport.WireRTP {
			t.Fatalf("%s: wire tags %v / %v", tc.name, mv2.Wire, mrtp.Wire)
		}
		mv2.Wire, mrtp.Wire = 0, 0
		normalize(&mv2)
		normalize(&mrtp)
		if !reflect.DeepEqual(mv2, mrtp) {
			t.Fatalf("%s: messages differ:\n v2: %+v\nrtp: %+v", tc.name, mv2, mrtp)
		}
	}
}

// normalize empties zero-length payload slices so reflect.DeepEqual
// ignores nil-vs-empty capacity differences between decode paths.
func normalize(m *transport.Message) {
	if len(m.Media.Samples) == 0 {
		m.Media.Samples = nil
	}
	if len(m.Chat.Records) == 0 {
		m.Chat.Records = nil
	}
	if len(m.Chat.Encoded) == 0 {
		m.Chat.Encoded = nil
	}
}

func TestCodecFramingGates(t *testing.T) {
	v2Only := NewCodecFor(transport.WireV2)
	rtpOnly := NewCodecFor(transport.WireRTP)
	bv2 := transport.AppendHello(nil, transport.Hello{Session: 1, Role: transport.RoleScreen})
	brtp := Encoder{}.AppendHello(nil, transport.Hello{Session: 1, Role: transport.RoleScreen})

	var msg transport.Message
	if err := v2Only.DecodeInto(&msg, bv2); err != nil {
		t.Fatalf("v2-only rejects v2: %v", err)
	}
	if err := v2Only.DecodeInto(&msg, brtp); err == nil {
		t.Fatal("v2-only accepted RTP")
	}
	if err := rtpOnly.DecodeInto(&msg, brtp); err != nil {
		t.Fatalf("rtp-only rejects RTP: %v", err)
	}
	if err := rtpOnly.DecodeInto(&msg, bv2); err == nil {
		t.Fatal("rtp-only accepted v2")
	}
}

func TestCodecTracksStreamsAndForgets(t *testing.T) {
	c := NewCodec()
	var msg transport.Message
	m := testMedia()
	for seq := uint32(0); seq < 3; seq++ {
		m.Seq = seq
		b, err := Encoder{}.AppendMedia(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecodeInto(&msg, b); err != nil {
			t.Fatal(err)
		}
	}
	// Re-deliver the last datagram: the per-stream depacketizer sees it.
	b, _ := Encoder{}.AppendMedia(nil, m)
	if err := c.DecodeInto(&msg, b); err != nil {
		t.Fatal(err)
	}
	agg, overflow := c.Stats()
	if agg.Packets != 4 || agg.Duplicates != 1 || overflow != 0 {
		t.Fatalf("stats %+v overflow %d", agg, overflow)
	}
	c.Forget(m.Session)
	if agg, _ := c.Stats(); agg.Packets != 0 {
		t.Fatalf("stats after Forget: %+v", agg)
	}
}

// TestCodecDecodeExtendsSequence checks the wire path reconstructs full
// 32-bit Ekho sequence numbers: media past seq 65535 round-trips.
func TestCodecDecodeExtendsSequence(t *testing.T) {
	c := NewCodec()
	var msg transport.Message
	m := testMedia()
	for _, seq := range []uint32{0xFFFE, 0xFFFF, 0x10000, 0x10001} {
		m.Seq = seq
		b, err := Encoder{}.AppendMedia(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecodeInto(&msg, b); err != nil {
			t.Fatal(err)
		}
		if msg.Media.Seq != seq {
			t.Fatalf("seq %#x decoded as %#x", seq, msg.Media.Seq)
		}
	}
}

func TestEncoderRejectsOversize(t *testing.T) {
	big := transport.Media{Samples: make([]int16, transport.MaxCount+1)}
	if _, err := (Encoder{}).AppendMedia(nil, big); !errors.Is(err, transport.ErrOversize) {
		t.Fatalf("oversize media: err %v", err)
	}
	bigChat := transport.Chat{Encoded: make([]byte, transport.MaxCount+1)}
	if _, err := (Encoder{}).AppendChat(nil, bigChat); !errors.Is(err, transport.ErrOversize) {
		t.Fatalf("oversize chat: err %v", err)
	}
}

// TestHotPathAllocFree locks in the packet-path allocation contract for
// the RTP wire: steady-state encode into a reused buffer and decode into
// a reused Message allocate nothing.
func TestHotPathAllocFree(t *testing.T) {
	m := testMedia()
	ch := testChat()
	c := NewCodec()
	var buf []byte
	var msg transport.Message
	var err error
	// Warm the reused capacities and the codec's stream map.
	warm := func() {
		if buf, err = (Encoder{}).AppendMedia(buf[:0], m); err != nil {
			t.Fatal(err)
		}
		if err = c.DecodeInto(&msg, buf); err != nil {
			t.Fatal(err)
		}
		if buf, err = (Encoder{}).AppendChat(buf[:0], ch); err != nil {
			t.Fatal(err)
		}
		if err = c.DecodeInto(&msg, buf); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("RTP encode+decode hot path allocates %.1f per round", allocs)
	}
}
