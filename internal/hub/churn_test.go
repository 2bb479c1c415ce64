package hub

import (
	"runtime"
	"testing"
	"time"

	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// Every RTP session that ends must take its depacketizer state with it.
// The hub's sniffing codec keeps one depacketizer per (SSRC, payload type)
// and stops tracking new streams past its cap, so a hub that never forgot
// would, after a few thousand sessions, decode every newcomer's sequence
// numbers statelessly. 10,000 sessions — more than the cap — each send a
// Hello, one chat packet and a Bye, a few in flight at a time; every one is
// admitted, and once the hub stops the codec tracks no stream and has
// decoded nothing past its cap.
func TestEndedRTPSessionsAreForgotten(t *testing.T) {
	const (
		sessions = 10_000
		inFlight = 4 // sessions between Hello and removal; under Capacity
	)
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	dec := rtp.NewCodec()
	server.(*memConn).SetDecoder(dec)
	h := New(Config{Capacity: 2 * inFlight, TickEvery: -1, IdleTimeout: -1}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	client := mem.Endpoint("client")
	var enc rtp.Encoder
	send := func(b []byte) {
		t.Helper()
		if err := client.SendTo(b, server.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for id := uint32(1); id <= sessions; id++ {
		send(enc.AppendHello(nil, transport.Hello{Session: id, Role: transport.RoleController}))
		chat, err := enc.AppendChat(nil, transport.Chat{Session: id, Encoded: []byte{0}})
		if err != nil {
			t.Fatal(err)
		}
		send(chat)
		send(enc.AppendBye(nil, transport.Bye{Session: id}))
		for h.Stats().Ended+inFlight < int64(id) {
			if time.Now().After(deadline) {
				t.Fatalf("stalled at session %d: %v", id, h.Stats())
			}
			runtime.Gosched()
		}
	}
	for h.Stats().Ended < sessions {
		if time.Now().After(deadline) {
			t.Fatalf("stalled after the last Bye: %v", h.Stats())
		}
		runtime.Gosched()
	}
	h.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if s := h.Stats(); s.Admitted != sessions || s.Rejected != 0 {
		t.Errorf("admitted %d and rejected %d of %d sessions", s.Admitted, s.Rejected, sessions)
	}
	// Serve has returned, so reading the codec no longer races its loop.
	if agg, overflow := dec.Stats(); agg.Packets != 0 || overflow != 0 {
		t.Errorf("codec still tracks %d packets of ended streams, %d decoded past its stream cap",
			agg.Packets, overflow)
	}
}
