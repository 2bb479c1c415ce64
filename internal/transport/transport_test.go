package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// decode is DecodeInto into a fresh Message.
func decode(b []byte) (Message, error) {
	var msg Message
	err := DecodeInto(&msg, b)
	return msg, err
}

func mustMedia(t testing.TB, m Media) []byte {
	t.Helper()
	b, err := AppendMedia(nil, m)
	if err != nil {
		t.Fatalf("AppendMedia: %v", err)
	}
	return b
}

func mustChat(t testing.TB, c Chat) []byte {
	t.Helper()
	b, err := AppendChat(nil, c)
	if err != nil {
		t.Fatalf("AppendChat: %v", err)
	}
	return b
}

func TestMediaRoundTrip(t *testing.T) {
	m := Media{Seq: 42, ContentStart: 123456789, ContentOff: 100, Samples: []int16{1, -2, 32767, -32768}}
	msg, err := decode(mustMedia(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeMedia {
		t.Fatal("type")
	}
	got := msg.Media
	if got.Seq != m.Seq || got.ContentStart != m.ContentStart || got.ContentOff != m.ContentOff {
		t.Fatalf("header fields: %+v", got)
	}
	for i := range m.Samples {
		if got.Samples[i] != m.Samples[i] {
			t.Fatalf("samples: %v", got.Samples)
		}
	}
}

func TestMediaSilenceSentinel(t *testing.T) {
	m := Media{Seq: 1, ContentStart: -1, Samples: []int16{0, 0}}
	msg, err := decode(mustMedia(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Media.ContentStart != -1 {
		t.Fatalf("silence sentinel lost: %d", msg.Media.ContentStart)
	}
}

func TestChatRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := Chat{
			Seq:       r.Uint32(),
			Session:   r.Uint32(),
			ADCMicros: r.Int63() - r.Int63(),
		}
		for i := 0; i < r.Intn(5); i++ {
			c.Records = append(c.Records, PlaybackRecord{
				ContentStart: r.Int63(),
				LocalMicros:  r.Int63(),
				N:            uint16(r.Intn(2000)),
			})
		}
		enc := make([]byte, r.Intn(500))
		r.Read(enc)
		c.Encoded = enc
		b, err := AppendChat(nil, c)
		if err != nil {
			return false
		}
		msg, err := decode(b)
		if err != nil || msg.Type != TypeChat {
			return false
		}
		g := msg.Chat
		if g.Seq != c.Seq || g.Session != c.Session || g.ADCMicros != c.ADCMicros || len(g.Records) != len(c.Records) {
			return false
		}
		if msg.Session != c.Session {
			return false
		}
		for i := range c.Records {
			if g.Records[i] != c.Records[i] {
				return false
			}
		}
		if len(g.Encoded) != len(c.Encoded) {
			return false
		}
		for i := range c.Encoded {
			if g.Encoded[i] != c.Encoded[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	msg, err := decode(AppendHello(nil, Hello{Seq: 7, Role: RoleController}))
	if err != nil || msg.Hello.Role != RoleController || msg.Hello.Seq != 7 {
		t.Fatalf("hello: %+v err %v", msg, err)
	}
	if msg.Session != 0 || msg.Hello.Session != 0 {
		t.Fatalf("session-0 hello must decode with session 0: %+v", msg)
	}
}

func TestHelloSessionRoundTrip(t *testing.T) {
	b := AppendHello(nil, Hello{Seq: 7, Session: 0xDEADBEEF, Role: RoleScreen})
	if b[3]&FlagSession == 0 {
		t.Fatal("session hello must set FlagSession")
	}
	msg, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Session != 0xDEADBEEF || msg.Hello.Session != 0xDEADBEEF || msg.Hello.Role != RoleScreen || msg.Hello.Seq != 7 {
		t.Fatalf("v2 hello: %+v", msg)
	}
}

func TestByeRoundTrip(t *testing.T) {
	for _, session := range []uint32{0, 99} {
		msg, err := decode(AppendBye(nil, Bye{Seq: 3, Session: session}))
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type != TypeBye || msg.Bye.Seq != 3 || msg.Bye.Session != session {
			t.Fatalf("bye (session %d): %+v", session, msg)
		}
	}
}

func TestBusyRoundTrip(t *testing.T) {
	b := Busy{Seq: 1, Session: 65, Active: 64, Capacity: 64}
	msg, err := decode(AppendBusy(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeBusy || msg.Busy != b {
		t.Fatalf("busy: %+v", msg)
	}
	// Truncated busy body must error, not panic.
	if _, err := decode(AppendBusy(nil, b)[:14]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("truncated busy: %v", err)
	}
}

// TestHeaderWithoutSessionFlagRejected: every header, session 0's
// included, carries FlagSession and a session id; an 8-byte header without
// the flag is a bad packet, and so is a flagged header cut before its id.
func TestHeaderWithoutSessionFlagRejected(t *testing.T) {
	b := AppendHello(nil, Hello{Seq: 11, Role: RoleScreen})
	if len(b) != headerSize+1 || b[3] != FlagSession {
		t.Fatalf("session-0 hello: %x, want a %d-byte flagged header", b, headerSize)
	}
	// Hand-built hello with an 8-byte header: magic | type | flags=0 | seq.
	short := make([]byte, 9)
	binary.LittleEndian.PutUint16(short[0:], Magic)
	short[2] = byte(TypeHello)
	binary.LittleEndian.PutUint32(short[4:], 11)
	short[8] = byte(RoleScreen)
	if _, err := decode(short); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("8-byte header without FlagSession: %v", err)
	}
	if _, err := decode(b[:8]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("flagged header truncated before its session id: %v", err)
	}
}

func TestSessionRoundTripAllTypes(t *testing.T) {
	const sid = 7
	media := mustMedia(t, Media{Seq: 1, Session: sid, ContentStart: 5, Samples: []int16{1, 2}})
	chat := mustChat(t, Chat{Seq: 2, Session: sid, ADCMicros: 3, Encoded: []byte{4}})
	for _, b := range [][]byte{
		media,
		chat,
		AppendHello(nil, Hello{Seq: 3, Session: sid, Role: RoleController}),
		AppendBye(nil, Bye{Seq: 4, Session: sid}),
		AppendBusy(nil, Busy{Seq: 5, Session: sid, Active: 1, Capacity: 2}),
	} {
		msg, err := decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Session != sid {
			t.Fatalf("type %d lost session: %+v", msg.Type, msg)
		}
	}
}

func TestEncodeMediaOversize(t *testing.T) {
	// More samples than the u16 count field can hold.
	if _, err := AppendMedia(nil, Media{Samples: make([]int16, 70000)}); !errors.Is(err, ErrOversize) {
		t.Fatalf("70000 samples: want ErrOversize, got %v", err)
	}
	// Fits u16 but overflows the datagram limit.
	if _, err := AppendMedia(nil, Media{Samples: make([]int16, 40000)}); !errors.Is(err, ErrOversize) {
		t.Fatalf("40000 samples: want ErrOversize, got %v", err)
	}
	// A max-size legal frame still encodes.
	if _, err := AppendMedia(nil, Media{Samples: make([]int16, 32000)}); err != nil {
		t.Fatalf("32000 samples should encode: %v", err)
	}
}

func TestEncodeChatOversize(t *testing.T) {
	if _, err := AppendChat(nil, Chat{Encoded: make([]byte, 70000)}); !errors.Is(err, ErrOversize) {
		t.Fatalf("70000 encoded bytes: want ErrOversize, got %v", err)
	}
	if _, err := AppendChat(nil, Chat{Records: make([]PlaybackRecord, 70000)}); !errors.Is(err, ErrOversize) {
		t.Fatalf("70000 records: want ErrOversize, got %v", err)
	}
	// 4000 records × 18 B ≈ 72 KiB: fits u16 but not a datagram.
	if _, err := AppendChat(nil, Chat{Records: make([]PlaybackRecord, 4000)}); !errors.Is(err, ErrOversize) {
		t.Fatalf("4000 records: want ErrOversize, got %v", err)
	}
	if _, err := AppendChat(nil, Chat{Records: make([]PlaybackRecord, 100), Encoded: make([]byte, 1000)}); err != nil {
		t.Fatalf("legal chat should encode: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 2, 3, 4, 5, 6, 7, 8}, make([]byte, 8)} {
		if _, err := decode(b); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("expected ErrBadPacket for %v, got %v", b, err)
		}
	}
	// Valid header, truncated body.
	m := mustMedia(t, Media{Seq: 1, Samples: make([]int16, 100)})
	if _, err := decode(m[:20]); err == nil {
		t.Fatal("truncated media should fail")
	}
	c := mustChat(t, Chat{Seq: 1, Encoded: make([]byte, 50)})
	if _, err := decode(c[:12]); err == nil {
		t.Fatal("truncated chat should fail")
	}
}

// TestReEncodeStability: decoding then re-encoding a well-formed packet
// reproduces the original bytes for every packet type, session 0 included.
func TestReEncodeStability(t *testing.T) {
	packets := [][]byte{
		mustMedia(t, Media{Seq: 1, ContentStart: 960, ContentOff: 3, Samples: []int16{9, -9}}),
		mustMedia(t, Media{Seq: 1, Session: 12, ContentStart: 960, Samples: []int16{9}}),
		mustChat(t, Chat{Seq: 2, ADCMicros: 7, Records: []PlaybackRecord{{1, 2, 3}}, Encoded: []byte{1}}),
		mustChat(t, Chat{Seq: 2, Session: 12, ADCMicros: 7, Encoded: []byte{1, 2}}),
		AppendHello(nil, Hello{Seq: 3, Role: RoleScreen}),
		AppendHello(nil, Hello{Seq: 3, Session: 12, Role: RoleScreen}),
		AppendBye(nil, Bye{Seq: 4, Session: 12}),
		AppendBusy(nil, Busy{Seq: 5, Session: 12, Active: 64, Capacity: 64}),
	}
	for i, b := range packets {
		msg, err := decode(b)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		var out []byte
		switch msg.Type {
		case TypeMedia:
			out = mustMedia(t, msg.Media)
		case TypeChat:
			out = mustChat(t, msg.Chat)
		case TypeHello:
			out = AppendHello(nil, msg.Hello)
		case TypeBye:
			out = AppendBye(nil, msg.Bye)
		case TypeBusy:
			out = AppendBusy(nil, msg.Busy)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("packet %d re-encode mismatch:\n in %x\nout %x", i, b, out)
		}
	}
}

func TestUDPLoopback(t *testing.T) {
	server, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	serverAddr, err := ResolveUDP(server.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendTo(AppendHello(nil, Hello{Seq: 1, Role: RoleScreen}), serverAddr); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeHello || msg.Hello.Role != RoleScreen {
		t.Fatalf("got %+v", msg)
	}
	// Reply with media to the observed source address.
	media := Media{Seq: 9, ContentStart: 960, Samples: []int16{5, 6, 7}}
	if err := server.SendTo(mustMedia(t, media), msg.From); err != nil {
		t.Fatal(err)
	}
	back, err := client.Recv(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != TypeMedia || back.Media.Seq != 9 || back.Media.Samples[2] != 7 {
		t.Fatalf("media back: %+v", back)
	}
}

func TestRecvSkipsStrayDatagrams(t *testing.T) {
	server, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	addr, _ := ResolveUDP(server.LocalAddr().String())
	// Garbage first, then a valid packet.
	if err := client.SendTo([]byte("not ekho"), addr); err != nil {
		t.Fatal(err)
	}
	if err := client.SendTo(AppendHello(nil, Hello{Seq: 2, Role: RoleController}), addr); err != nil {
		t.Fatal(err)
	}
	msg, err := server.Recv(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeHello {
		t.Fatalf("expected hello after skipping garbage, got %+v", msg)
	}
}
