package transport

import (
	"bytes"
	"testing"
)

func sampleMedia(session uint32) Media {
	samples := make([]int16, 960)
	for i := range samples {
		samples[i] = int16(i*37 - 500)
	}
	return Media{Seq: 42, Session: session, ContentStart: 123456, ContentOff: 7, Samples: samples}
}

func sampleChat(session uint32) Chat {
	return Chat{
		Seq:       9,
		Session:   session,
		ADCMicros: 987654321,
		Records: []PlaybackRecord{
			{ContentStart: 1000, LocalMicros: 2000, N: 960},
			{ContentStart: 1960, LocalMicros: 2960, N: 960},
		},
		Encoded: bytes.Repeat([]byte{0xAB}, 300),
	}
}

// TestAppendMatchesEncode checks that appending after a prefix leaves the
// prefix intact and adds exactly the bytes of a fresh encode (dst nil),
// for session 0 and a non-zero session alike.
func TestAppendMatchesEncode(t *testing.T) {
	pre := []byte{1, 2, 3}
	for _, session := range []uint32{0, 77} {
		m := sampleMedia(session)
		want, err := AppendMedia(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendMedia(pre, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:3], pre) || !bytes.Equal(got[3:], want) {
			t.Fatalf("session %d: AppendMedia with prefix corrupted output", session)
		}

		c := sampleChat(session)
		wantC, err := AppendChat(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := AppendChat(pre, c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotC[:3], pre) || !bytes.Equal(gotC[3:], wantC) {
			t.Fatalf("session %d: AppendChat with prefix corrupted output", session)
		}
	}
}

// TestAppendOversizeLeavesDstUnchanged checks the error contract: on
// refusal the destination comes back unmodified.
func TestAppendOversizeLeavesDstUnchanged(t *testing.T) {
	dst := []byte{9, 9}
	m := Media{Samples: make([]int16, 40000)} // 80 KB > maxDatagram
	out, err := AppendMedia(dst, m)
	if err == nil {
		t.Fatal("want oversize error")
	}
	if !bytes.Equal(out, dst) {
		t.Fatal("dst modified on error")
	}
	c := Chat{Encoded: make([]byte, maxCount+1)}
	out, err = AppendChat(dst, c)
	if err == nil {
		t.Fatal("want oversize error")
	}
	if !bytes.Equal(out, dst) {
		t.Fatal("dst modified on error")
	}
}

// TestAppendZeroAlloc asserts the append encoders stay off the heap with a
// warm reused buffer — the per-tick property the hub relies on.
func TestAppendZeroAlloc(t *testing.T) {
	m := sampleMedia(5)
	c := sampleChat(5)
	var buf []byte
	var err error
	if buf, err = AppendMedia(buf[:0], m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if buf, err = AppendMedia(buf[:0], m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendMedia allocates %v per op, want 0", allocs)
	}
	if buf, err = AppendChat(buf[:0], c); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if buf, err = AppendChat(buf[:0], c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendChat allocates %v per op, want 0", allocs)
	}
}
