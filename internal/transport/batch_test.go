package transport

import (
	"net"
	"testing"
	"time"
)

// mediaPacket builds an encoded media datagram for decode tests.
func mediaPacket(t *testing.T, session uint32, seq uint32, nsamples int) []byte {
	t.Helper()
	samples := make([]int16, nsamples)
	for i := range samples {
		samples[i] = int16(i*31 + int(seq))
	}
	b, err := AppendMedia(nil, Media{Seq: seq, Session: session, ContentStart: 960 * int64(seq), Samples: samples})
	if err != nil {
		t.Fatalf("AppendMedia: %v", err)
	}
	return b
}

func chatPacket(t *testing.T, session uint32, seq uint32) []byte {
	t.Helper()
	b, err := AppendChat(nil, Chat{
		Seq: seq, Session: session, ADCMicros: 123456,
		Records: []PlaybackRecord{{ContentStart: 10, LocalMicros: 20, N: 960}, {ContentStart: 970, LocalMicros: 40020, N: 960}},
		Encoded: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	})
	if err != nil {
		t.Fatalf("AppendChat: %v", err)
	}
	return b
}

// TestDecodeDoesNotAliasReceiveBuffer is the guarantee the batched
// receive path depends on: Recv and RecvBatch reuse one receive buffer
// (and MemNet recycles datagram slabs), so a decoded message must own
// copies of every payload — mutating the wire bytes after decode must
// not corrupt the message.
func TestDecodeDoesNotAliasReceiveBuffer(t *testing.T) {
	media := mediaPacket(t, 7, 3, 96)
	chat := chatPacket(t, 7, 4)

	mm, err := decode(media)
	if err != nil {
		t.Fatalf("decode(media): %v", err)
	}
	cm, err := decode(chat)
	if err != nil {
		t.Fatalf("decode(chat): %v", err)
	}
	wantSamples := append([]int16(nil), mm.Media.Samples...)
	wantRecords := append([]PlaybackRecord(nil), cm.Chat.Records...)
	wantEncoded := append([]byte(nil), cm.Chat.Encoded...)

	// Scribble over both receive buffers end to end.
	for i := range media {
		media[i] = ^media[i]
	}
	for i := range chat {
		chat[i] = ^chat[i]
	}

	for i, s := range mm.Media.Samples {
		if s != wantSamples[i] {
			t.Fatalf("media sample %d corrupted after buffer mutation: got %d, want %d", i, s, wantSamples[i])
		}
	}
	for i, r := range cm.Chat.Records {
		if r != wantRecords[i] {
			t.Fatalf("chat record %d corrupted after buffer mutation: got %+v, want %+v", i, r, wantRecords[i])
		}
	}
	for i, e := range cm.Chat.Encoded {
		if e != wantEncoded[i] {
			t.Fatalf("chat encoded byte %d corrupted after buffer mutation: got %d, want %d", i, e, wantEncoded[i])
		}
	}
}

// TestDecodeIntoReusesCapacity verifies the arena contract: decoding a
// stream of packets into one Message slot keeps reusing the slot's
// payload capacity (no per-packet growth) and resets every field, even
// across packet types and after decode errors.
func TestDecodeIntoReusesCapacity(t *testing.T) {
	var msg Message
	media := mediaPacket(t, 9, 1, 960)
	if err := DecodeInto(&msg, media); err != nil {
		t.Fatalf("DecodeInto(media): %v", err)
	}
	if len(msg.Media.Samples) != 960 {
		t.Fatalf("decoded %d samples, want 960", len(msg.Media.Samples))
	}
	samplesCap := cap(msg.Media.Samples)

	chat := chatPacket(t, 9, 2)
	if err := DecodeInto(&msg, chat); err != nil {
		t.Fatalf("DecodeInto(chat): %v", err)
	}
	if msg.Type != TypeChat || len(msg.Chat.Records) != 2 || len(msg.Chat.Encoded) != 8 {
		t.Fatalf("chat decode into reused slot: %+v", msg)
	}
	if len(msg.Media.Samples) != 0 {
		t.Fatalf("stale media samples survived a chat decode: %d", len(msg.Media.Samples))
	}
	if cap(msg.Media.Samples) != samplesCap {
		t.Fatalf("media capacity lost across a chat decode: %d -> %d", samplesCap, cap(msg.Media.Samples))
	}
	recordsCap, encodedCap := cap(msg.Chat.Records), cap(msg.Chat.Encoded)

	if err := DecodeInto(&msg, []byte{0xde, 0xad}); err == nil {
		t.Fatal("DecodeInto accepted garbage")
	}
	if cap(msg.Media.Samples) != samplesCap || cap(msg.Chat.Records) != recordsCap || cap(msg.Chat.Encoded) != encodedCap {
		t.Fatal("payload capacity lost after a decode error")
	}

	if err := DecodeInto(&msg, media); err != nil {
		t.Fatalf("DecodeInto(media) after error: %v", err)
	}
	if cap(msg.Media.Samples) != samplesCap {
		t.Fatalf("media decode reallocated: cap %d -> %d", samplesCap, cap(msg.Media.Samples))
	}
	if msg.Chat.Seq != 0 || msg.Chat.ADCMicros != 0 || len(msg.Chat.Records) != 0 || len(msg.Chat.Encoded) != 0 {
		t.Fatalf("stale chat fields survived a media decode: %+v", msg.Chat)
	}
	if testing.AllocsPerRun(100, func() {
		if err := DecodeInto(&msg, media); err != nil {
			t.Fatal(err)
		}
	}) != 0 {
		t.Error("DecodeInto allocates in steady state")
	}
}

// TestRecvSendBatchUDP round-trips a burst over real loopback UDP
// sockets: SendBatch pushes a full batch, RecvBatch drains it with the
// greedy short-fuse read loop, preserving per-sender packet order.
func TestRecvSendBatchUDP(t *testing.T) {
	server, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen server: %v", err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen client: %v", err)
	}
	defer client.Close()

	const burst = 16
	pkts := make([]Packet, 0, burst)
	for seq := uint32(0); seq < burst; seq++ {
		pkts = append(pkts, Packet{Buf: mediaPacket(t, 5, seq, 48), To: server.LocalAddr()})
	}
	// A hello rides along so the control-packet From contract is covered.
	pkts = append(pkts, Packet{Buf: AppendHello(nil, Hello{Session: 5, Role: RoleScreen}), To: server.LocalAddr()})
	if sent, err := client.SendBatch(pkts); err != nil || sent != len(pkts) {
		t.Fatalf("SendBatch sent %d/%d: %v", sent, len(pkts), err)
	}

	msgs := make([]Message, 8)
	got := 0
	var lastSeq int64 = -1
	deadline := time.Now().Add(5 * time.Second)
	for got < burst+1 && time.Now().Before(deadline) {
		n, err := server.RecvBatch(time.Now().Add(time.Second), msgs)
		if err != nil {
			t.Fatalf("RecvBatch: %v", err)
		}
		for i := 0; i < n; i++ {
			switch msgs[i].Type {
			case TypeMedia:
				if msgs[i].From != nil {
					t.Errorf("media packet materialized From=%v on the UDP fast path", msgs[i].From)
				}
				if int64(msgs[i].Media.Seq) <= lastSeq {
					t.Errorf("media reordered within sender: seq %d after %d", msgs[i].Media.Seq, lastSeq)
				}
				lastSeq = int64(msgs[i].Media.Seq)
			case TypeHello:
				if msgs[i].From == nil {
					t.Error("hello arrived without From")
				} else if _, ok := msgs[i].From.(*net.UDPAddr); !ok {
					t.Errorf("hello From is %T, want *net.UDPAddr", msgs[i].From)
				}
			}
			got++
		}
	}
	if got != burst+1 {
		t.Fatalf("received %d packets, want %d", got, burst+1)
	}
}

// TestRecvBatchAllocFree locks in the zero-allocation steady state of
// the batched UDP receive and send path: after warmup, a full
// send-batch/recv-batch cycle over real sockets performs no heap
// allocations on either side.
func TestRecvBatchAllocFree(t *testing.T) {
	server, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen server: %v", err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen client: %v", err)
	}
	defer client.Close()

	const burst = 8
	to, err := net.ResolveUDPAddr("udp", server.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]Packet, burst)
	for seq := uint32(0); seq < burst; seq++ {
		pkts[seq] = Packet{Buf: mediaPacket(t, 5, seq, 480), To: to}
	}
	msgs := make([]Message, burst)
	cycle := func() {
		if sent, err := client.SendBatch(pkts); err != nil || sent != burst {
			t.Fatalf("SendBatch sent %d/%d: %v", sent, burst, err)
		}
		got := 0
		for got < burst {
			n, err := server.RecvBatch(time.Now().Add(time.Second), msgs[:burst-got])
			if err != nil {
				t.Fatalf("RecvBatch: %v", err)
			}
			if n == 0 {
				t.Fatal("RecvBatch returned empty batch before burst completed")
			}
			got += n
		}
	}
	cycle() // warmup: deadline timers, decode arenas
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("batched UDP send+recv cycle allocates %.1f times per burst, want 0", allocs)
	}
}
