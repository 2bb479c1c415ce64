package hub

import (
	"net"
	"testing"
	"time"

	"ekho/internal/metrics"
	"ekho/internal/transport"
)

// startWorkers launches a hub's shard workers without a receive loop, so
// tests can drive DispatchBatch/Dispatch directly and own the packet
// lifetimes. The returned stop function shuts the hub down and waits.
func startWorkers(h *Hub) (stop func()) {
	for _, sh := range h.shards {
		h.wg.Add(1)
		go h.worker(sh)
	}
	return func() {
		h.Close()
		h.wg.Wait()
	}
}

// waitArenasIdle blocks until every receive arena is back on the
// freelist — i.e. all dispatched batches have been fully processed —
// then returns them. Channel operations only, so it is allocation-free.
func waitArenasIdle(h *Hub) {
	var held [numArenas]*recvArena
	for i := range held {
		held[i] = <-h.arenaFree
	}
	for _, a := range held {
		h.arenaFree <- a
	}
}

// admitDirect admits a session via the dispatch path and waits until its
// hello has been processed.
func admitDirect(t testing.TB, h *Hub, id uint32, from net.Addr) {
	t.Helper()
	h.Dispatch(transport.Message{
		Type:    transport.TypeHello,
		Session: id,
		Hello:   transport.Hello{Session: id, Role: transport.RoleScreen},
		From:    from,
	})
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Admitted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("session never admitted")
		}
		time.Sleep(time.Millisecond)
	}
}

// mediaDatagram encodes one full-size media frame for session id.
func mediaDatagram(t testing.TB, id uint32, seq uint32) []byte {
	t.Helper()
	samples := make([]int16, 960)
	for i := range samples {
		samples[i] = int16(i)
	}
	b, err := transport.EncodeMedia(transport.Media{
		Seq: seq, Session: id, ContentStart: int64(seq) * 960, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardOverloadShedsMediaKeepsControl saturates a one-shard hub —
// the worker is wedged and the work queue filled — and asserts the
// overload policy: data-plane packets are shed and counted while
// Hello/Bye control packets ride the control lane and still take effect
// once the worker resumes.
func TestShardOverloadShedsMediaKeepsControl(t *testing.T) {
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	ended := make(chan uint32, 4)
	h := New(Config{
		TickEvery: -1, IdleTimeout: -1,
		Shards: 1, QueueDepth: 2, Capacity: 8,
		OnSessionEnd: func(id uint32, r SessionResult) { ended <- id },
	}, conn)
	stop := startWorkers(h)
	defer stop()
	from := mem.Endpoint("client").LocalAddr()

	admitDirect(t, h, 1, from)

	// Wedge the worker: a stats probe whose result nobody reads yet.
	block := make(chan []SessionInfo)
	sh := h.shards[0]
	if !h.enqueue(sh, work{kind: workStats, stats: block}) {
		t.Fatal("enqueue stats probe")
	}

	// Flood media for the admitted session until the queue overflows and
	// shedding kicks in.
	msgs := make([]transport.Message, 8)
	for i := range msgs {
		if err := transport.DecodeInto(&msgs[i], mediaDatagram(t, 1, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Shed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no shedding after sustained overload: %v", h.Stats())
		}
		h.DispatchBatch(msgs)
	}
	shed := h.Stats().Shed

	// Control packets must still get through: a new session's hello and
	// the old session's bye both land on the control lane.
	h.DispatchBatch([]transport.Message{
		{Type: transport.TypeHello, Session: 2, Hello: transport.Hello{Session: 2, Role: transport.RoleScreen}, From: from},
		{Type: transport.TypeBye, Session: 1, Bye: transport.Bye{Session: 1}, From: from},
	})
	if got := h.Stats().Admitted; got != 2 {
		t.Fatalf("admitted %d sessions under overload, want 2", got)
	}
	if dropped := h.Stats().CtrlDropped; dropped != 0 {
		t.Fatalf("%d control packets dropped, want 0", dropped)
	}

	<-block // un-wedge the worker
	select {
	case id := <-ended:
		if id != 1 {
			t.Fatalf("session %d ended, want 1 (bye)", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("bye never took effect after overload: %v", h.Stats())
	}
	if s := h.Stats(); s.Shed < shed || s.ActiveSessions != 1 {
		t.Errorf("post-overload stats = %v, want shed >= %d and 1 active", s, shed)
	}
}

// TestDrainUnderLoad drains a hub while a media flood is in flight: the
// existing session keeps being served, the new hello is refused with
// TypeBusy, and shutdown stays clean.
func TestDrainUnderLoad(t *testing.T) {
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: 8}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	first := mem.Endpoint("first")
	if err := first.SendTo(
		transport.EncodeHello(transport.Hello{Session: 1, Role: transport.RoleScreen}),
		server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Admitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first session never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Continuous media flood for session 1 through the real socket path.
	stopFlood := make(chan struct{})
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		pkt := mediaDatagram(t, 1, 0)
		for {
			select {
			case <-stopFlood:
				return
			default:
				_ = first.SendTo(pkt, server.LocalAddr())
			}
		}
	}()

	h.Drain()
	before := h.Stats().PacketsIn

	second := mem.Endpoint("second")
	if err := second.SendTo(
		transport.EncodeHello(transport.Hello{Session: 2, Role: transport.RoleScreen}),
		server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	msg, err := second.Recv(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatalf("waiting for busy reject under load: %v", err)
	}
	if msg.Type != transport.TypeBusy || msg.Session != 2 {
		t.Fatalf("got %v for session %d, want TypeBusy for 2", msg.Type, msg.Session)
	}

	// The flood must still be flowing through the draining hub.
	deadline = time.Now().Add(5 * time.Second)
	for h.Stats().PacketsIn <= before {
		if time.Now().After(deadline) {
			t.Fatal("packet flow stalled during drain")
		}
		time.Sleep(time.Millisecond)
	}

	close(stopFlood)
	<-floodDone
	if s := h.Stats(); s.Rejected == 0 || s.ActiveSessions != 1 {
		t.Errorf("drain-under-load stats = %v, want >=1 rejected and 1 active", s)
	}
	h.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestBatchedDispatchAllocFree locks in the zero-allocation steady
// state of the batched dispatch path: decoding a full batch into a
// recycled arena, routing it to shard workers and processing it
// performs no heap allocations once warm.
func TestBatchedDispatchAllocFree(t *testing.T) {
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: 4}, conn)
	stop := startWorkers(h)
	defer stop()
	from := mem.Endpoint("client").LocalAddr()
	admitDirect(t, h, 1, from)

	raw := make([][]byte, batchSize)
	for i := range raw {
		raw[i] = mediaDatagram(t, 1, uint32(i))
	}
	msgs := make([]transport.Message, batchSize)
	cycle := func() {
		for i := range msgs {
			if err := transport.DecodeInto(&msgs[i], raw[i]); err != nil {
				t.Fatal(err)
			}
		}
		h.DispatchBatch(msgs)
		waitArenasIdle(h)
	}
	for i := 0; i < 4; i++ {
		cycle() // warm arenas, staging slices and decode capacity
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Errorf("batched decode+dispatch of %d packets allocates %.1f times per batch, want 0",
			batchSize, allocs)
	}
	if shed := h.Stats().Shed; shed != 0 {
		t.Fatalf("alloc test shed %d packets; queue sizing broken", shed)
	}
}

// TestDispatchLatencyHistogram sanity-checks the quantile accounting the
// load harness keys off.
func TestDispatchLatencyHistogram(t *testing.T) {
	c := newCounters(metrics.NewRegistry())
	c.observeDispatch(1000, 90)  // ~1 µs × 90 packets
	c.observeDispatch(1<<20, 10) // ~1 ms × 10 packets
	var l LatencyHist
	for i := range l {
		l[i] = c.latency[i].Load()
	}
	if got := l.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if p50 := l.Quantile(0.50); p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want <= 2µs", p50)
	}
	if p99 := l.Quantile(0.99); p99 < 512*time.Microsecond || p99 > 4*time.Millisecond {
		t.Errorf("p99 = %v, want ~1-2ms bucket", p99)
	}
	if d := l.Sub(l); d.Count() != 0 {
		t.Errorf("self-difference not empty: %d", d.Count())
	}
	var empty LatencyHist
	if q := empty.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

// benchIngestHub builds a worker-only hub with `sessions` admitted
// sessions and one encoded media datagram per session.
func benchIngestHub(b *testing.B, sessions int) (*Hub, [][]byte, func()) {
	b.Helper()
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: sessions}, conn)
	stop := startWorkers(h)
	from := mem.Endpoint("bench-client").LocalAddr()
	raw := make([][]byte, sessions)
	for i := range raw {
		id := uint32(i + 1)
		h.Dispatch(transport.Message{
			Type:    transport.TypeHello,
			Session: id,
			Hello:   transport.Hello{Session: id, Role: transport.RoleScreen},
			From:    from,
		})
		raw[i] = mediaDatagram(b, id, uint32(i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().Admitted < int64(sessions) {
		if time.Now().After(deadline) {
			b.Fatal("sessions never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return h, raw, stop
}

// BenchmarkIngest compares the full decode→dispatch→worker ingest cost
// per packet on the legacy per-packet path versus the batched path (the
// acceptance metric for the batched wire path: ns/packet and
// allocs/packet, 64 sessions across 8 shards).
func BenchmarkIngest(b *testing.B) {
	const sessions = 64
	b.Run("perpacket", func(b *testing.B) {
		h, raw, stop := benchIngestHub(b, sessions)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg, err := transport.Decode(raw[i%sessions])
			if err != nil {
				b.Fatal(err)
			}
			h.Dispatch(msg)
		}
		b.StopTimer()
		waitQuiesce(b, h, sessions)
	})
	b.Run("batched", func(b *testing.B) {
		h, raw, stop := benchIngestHub(b, sessions)
		defer stop()
		msgs := make([]transport.Message, batchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batchSize {
			n := batchSize
			if rem := b.N - i; rem < n {
				n = rem
			}
			for j := 0; j < n; j++ {
				if err := transport.DecodeInto(&msgs[j], raw[(i+j)%sessions]); err != nil {
					b.Fatal(err)
				}
			}
			h.DispatchBatch(msgs[:n])
		}
		waitArenasIdle(h)
		b.StopTimer()
		waitQuiesce(b, h, sessions)
	})
}

// waitQuiesce waits for the shard queues to drain after a benchmark loop
// so timers stop before teardown races the workers.
func waitQuiesce(b *testing.B, h *Hub, sessions int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		idle := true
		for _, sh := range h.shards {
			if len(sh.queue) > 0 || len(sh.ctrl) > 0 {
				idle = false
				break
			}
		}
		if idle || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
