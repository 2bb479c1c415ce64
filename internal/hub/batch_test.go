package hub

import (
	"math"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/metrics"
	"ekho/internal/transport"
)

// admitDirect admits a session via the dispatch path, which handles its
// hello before it returns.
func admitDirect(t testing.TB, h *Hub, id uint32, from net.Addr) {
	t.Helper()
	before := h.Stats().Admitted
	h.Dispatch(transport.Message{
		Type:    transport.TypeHello,
		Session: id,
		Hello:   transport.Hello{Session: id, Role: transport.RoleScreen},
		From:    from,
	})
	if h.Stats().Admitted != before+1 {
		t.Fatalf("session %d not admitted", id)
	}
}

// mediaDatagram encodes one full-size media frame for session id.
func mediaDatagram(t testing.TB, id uint32, seq uint32) []byte {
	t.Helper()
	samples := make([]int16, 960)
	for i := range samples {
		samples[i] = int16(i)
	}
	b, err := transport.AppendMedia(nil, transport.Media{
		Seq: seq, Session: id, ContentStart: int64(seq) * 960, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	return b
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
		transport.AppendHello(nil, transport.Hello{Session: 1, Role: transport.RoleScreen}),
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
		transport.AppendHello(nil, transport.Hello{Session: 2, Role: transport.RoleScreen}),
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
// state of the batched dispatch path: decoding a full batch into reused
// message slots, routing it to its sessions and handling it performs no
// heap allocations once warm.
func TestBatchedDispatchAllocFree(t *testing.T) {
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: 4}, conn)
	defer h.Close()
	from := mem.Endpoint("client").LocalAddr()
	const sessions = 4
	for id := uint32(1); id <= sessions; id++ {
		admitDirect(t, h, id, from)
	}

	raw := make([][]byte, batchSize)
	for i := range raw {
		raw[i] = mediaDatagram(t, uint32(i%sessions)+1, uint32(i))
	}
	msgs := make([]transport.Message, batchSize)
	cycle := func() {
		for i := range msgs {
			if err := transport.DecodeInto(&msgs[i], raw[i]); err != nil {
				t.Fatal(err)
			}
		}
		h.DispatchBatch(msgs)
	}
	for i := 0; i < 4; i++ {
		cycle() // warm the decode capacity
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Errorf("batched decode+dispatch of %d packets allocates %.1f times per batch, want 0",
			batchSize, allocs)
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

// benchIngestHub builds a hub without a pace loop with `sessions`
// admitted sessions and one encoded media datagram per session.
func benchIngestHub(b *testing.B, sessions int) (*Hub, [][]byte) {
	b.Helper()
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: sessions}, conn)
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
	if h.Stats().Admitted < int64(sessions) {
		b.Fatal("sessions not admitted")
	}
	return h, raw
}

// BenchmarkIngest measures the full decode→dispatch→handle ingest cost
// per packet on the batched path (ns/packet and allocs/packet, 64
// sessions).
func BenchmarkIngest(b *testing.B) {
	const sessions = 64
	h, raw := benchIngestHub(b, sessions)
	defer h.Close()
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
}

// BenchmarkTickPass measures one pace-loop pass over real traffic, run
// as the loop runs a tick's pass: every session ticks (marked screen and
// accessory frames encoded and sent) and handles one SWB32 chat datagram
// (decode, resequence, estimator). It reports ns per session per tick
// and fails if the media frames did not all leave.
func BenchmarkTickPass(b *testing.B) {
	const sessions = 32
	// One second of a tone under noise, encoded once; every session's
	// uplink cycles through it.
	enc := codec.NewEncoder(codec.SWB32)
	rng := rand.New(rand.NewPCG(1, 2))
	frame := make([]float64, audio.FrameSamples)
	payloads := make([][]byte, 50)
	for i := range payloads {
		for j := range frame {
			n := i*len(frame) + j
			frame[j] = 0.2*math.Sin(2*math.Pi*440*float64(n)/audio.SampleRate) + 0.01*rng.NormFloat64()
		}
		p, err := enc.EncodeTo(nil, frame)
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = p
	}
	mem := NewMemNet()
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: sessions}, mem.Endpoint("hub"))
	defer h.Close()
	screen, ctl := mem.Endpoint("screen").LocalAddr(), mem.Endpoint("controller").LocalAddr()
	msgs := make([]transport.Message, sessions)
	for i := range msgs {
		id := uint32(i + 1)
		for _, hello := range []struct {
			role transport.Role
			from net.Addr
		}{{transport.RoleScreen, screen}, {transport.RoleController, ctl}} {
			h.Dispatch(transport.Message{Type: transport.TypeHello, Session: id,
				Hello: transport.Hello{Session: id, Role: hello.role}, From: hello.from})
		}
		msgs[i] = transport.Message{Type: transport.TypeChat, Session: id, From: ctl}
	}
	out := h.Stats().PacketsOut
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range msgs {
			msgs[i].Chat = transport.Chat{Seq: uint32(n), Session: msgs[i].Session,
				ADCMicros: int64(n) * 20000, Encoded: payloads[n%len(payloads)]}
		}
		h.mu.Lock()
		h.tick(1)
		h.dispatch(msgs)
		h.mu.Unlock()
	}
	b.StopTimer()
	if sent := h.Stats().PacketsOut - out; sent != int64(2*sessions*b.N) {
		b.Fatalf("%d media packets left, want %d", sent, 2*sessions*b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessions), "ns/session-tick")
}
