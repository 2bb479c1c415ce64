package transport

import "testing"

// FuzzDecode hammers the wire parser with arbitrary bytes: it must never
// panic, must round-trip its own encodings (session 0 included), and
// anything it accepts must survive a re-encode/re-decode cycle.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendHello(nil, Hello{Seq: 1, Role: RoleScreen}))
	f.Add(AppendHello(nil, Hello{Seq: 1, Session: 7, Role: RoleController}))
	if b, err := AppendMedia(nil, Media{Seq: 2, ContentStart: -1, Samples: []int16{1, 2, 3}}); err == nil {
		f.Add(b)
	}
	if b, err := AppendMedia(nil, Media{Seq: 2, Session: 9, ContentStart: 960, ContentOff: 4, Samples: []int16{-1}}); err == nil {
		f.Add(b)
	}
	if b, err := AppendChat(nil, Chat{Seq: 3, ADCMicros: 99, Records: []PlaybackRecord{{ContentStart: 5, LocalMicros: 6, N: 7}}, Encoded: []byte{8, 9}}); err == nil {
		f.Add(b)
	}
	if b, err := AppendChat(nil, Chat{Seq: 3, Session: 0xFFFFFFFF, ADCMicros: -1, Encoded: []byte{1}}); err == nil {
		f.Add(b)
	}
	f.Add(AppendBye(nil, Bye{Seq: 4}))
	f.Add(AppendBye(nil, Bye{Seq: 4, Session: 11}))
	f.Add(AppendBusy(nil, Busy{Seq: 5, Session: 65, Active: 64, Capacity: 64}))
	f.Add([]byte{0x09, 0xE5, 0x02, 0x00, 0xFF, 0xFF, 0xFF, 0xFF})    // 8-byte header without FlagSession
	f.Add([]byte{0x09, 0xE5, 0x02, 0x01, 0xFF, 0xFF, 0xFF, 0xFF})    // header truncated before session
	f.Add([]byte{0x09, 0xE5, 0x05, 0x01, 0, 0, 0, 0, 1, 0, 0, 0})    // busy with session, no body
	f.Add([]byte{0x09, 0xE5, 0x01, 0xFE, 0, 0, 0, 0, 1, 0, 0, 0, 1}) // unknown flag bits
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*1024 {
			// Above the datagram limit Recv would never see it, and a
			// decoded payload could legitimately fail to re-encode.
			return
		}
		msg, err := decode(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode (without panicking; oversize is
		// impossible for payloads parsed out of a <=64 KiB datagram) and
		// decode back to the same message.
		var out []byte
		switch msg.Type {
		case TypeMedia:
			out, err = AppendMedia(nil, msg.Media)
		case TypeChat:
			out, err = AppendChat(nil, msg.Chat)
		case TypeHello:
			out = AppendHello(nil, msg.Hello)
		case TypeBye:
			out = AppendBye(nil, msg.Bye)
		case TypeBusy:
			out = AppendBusy(nil, msg.Busy)
		}
		if err != nil {
			t.Fatalf("re-encode of accepted packet failed: %v", err)
		}
		again, err := decode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Type != msg.Type || again.Session != msg.Session {
			t.Fatalf("round-trip drift: %+v vs %+v", msg, again)
		}
	})
}
