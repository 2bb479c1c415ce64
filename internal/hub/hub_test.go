package hub

import (
	"math"
	"net"
	"testing"
	"time"

	"ekho"
	"ekho/internal/estimator"
	"ekho/internal/transport"
)

// TestHubLoopbackFleet is the tentpole acceptance test: one hub serves a
// full fleet of concurrent loopback sessions — each with a different air
// delay and a wildly different local clock — and every admitted session
// converges below the 10 ms echo threshold, while the session past
// capacity is turned away with TypeBusy.
func TestHubLoopbackFleet(t *testing.T) {
	capacity := 64
	content := 12.0
	if testing.Short() {
		capacity = 16
		content = 10.0
	}
	rep, err := RunLoopback(LoopbackScenario{
		Sessions:       capacity + 1,
		Capacity:       capacity,
		ContentSeconds: content,
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}

	if len(rep.Rejected) != 1 {
		t.Fatalf("rejected sessions = %v, want exactly one", rep.Rejected)
	}
	if len(rep.Results) != capacity {
		t.Fatalf("got %d session results, want %d", len(rep.Results), capacity)
	}
	if rep.Stats.PeakSessions != int64(capacity) {
		t.Errorf("peak sessions = %d, want %d", rep.Stats.PeakSessions, capacity)
	}
	// The refused session's screen and controller hellos are each
	// answered with TypeBusy, so the hello-reject counter reads 2.
	if rep.Stats.Rejected != 2 {
		t.Errorf("stats rejected = %d, want 2", rep.Stats.Rejected)
	}

	for _, r := range rep.Results {
		if r.Measurements < 3 {
			t.Errorf("session %d: only %d measurements", r.ID, r.Measurements)
			continue
		}
		if r.Actions < 1 {
			t.Errorf("session %d: no compensation action (first ISD %.1f ms)",
				r.ID, r.ISDs[0]*1000)
			continue
		}
		if r.PostActionMeasurements < 1 {
			t.Errorf("session %d: no measurement after compensation", r.ID)
			continue
		}
		// The injected air delay is 80-240 ms, so the session must have
		// started far out of sync...
		if first := r.ISDs[0]; first < ekho.HumanEchoThresholdSec {
			t.Errorf("session %d: first ISD %.1f ms already under threshold; scenario broken",
				r.ID, first*1000)
		}
		// ...and finished under the 10 ms human echo threshold.
		if last := r.ISDs[len(r.ISDs)-1]; math.Abs(last) >= ekho.HumanEchoThresholdSec {
			t.Errorf("session %d: final ISD %.1f ms, want |ISD| < 10 ms (trace %v)",
				r.ID, last*1000, r.ISDs)
		}
	}
}

// TestHubClockOffsetIndependence reruns a small fleet with extreme,
// asymmetric clock offsets: Ekho needs no clock synchronization, so the
// measured ISDs must not change.
func TestHubClockOffsetIndependence(t *testing.T) {
	rep, err := RunLoopback(LoopbackScenario{
		Sessions:       4,
		ContentSeconds: 10,
		ClockOffsetSec: func(id uint32) float64 { return float64(id)*7919.5 - 12000 },
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Actions < 1 || r.PostActionMeasurements < 1 {
			t.Errorf("session %d: actions=%d postActionMeasurements=%d, want >=1 each",
				r.ID, r.Actions, r.PostActionMeasurements)
			continue
		}
		if last := r.ISDs[len(r.ISDs)-1]; math.Abs(last) >= ekho.HumanEchoThresholdSec {
			t.Errorf("session %d: final ISD %.1f ms under clock offset, want < 10 ms",
				r.ID, last*1000)
		}
	}
}

// TestHubIdleReap verifies that a session with no inbound traffic is
// evicted after the idle timeout and surfaced through OnSessionEnd.
func TestHubIdleReap(t *testing.T) {
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	ended := make(chan uint32, 1)
	h := New(Config{
		TickEvery:   -1,
		IdleTimeout: 50 * time.Millisecond,
		OnSessionEnd: func(id uint32, r SessionResult) {
			select {
			case ended <- id:
			default:
			}
		},
	}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	client := mem.Endpoint("client")
	if err := client.SendTo(
		transport.AppendHello(nil, transport.Hello{Session: 7, Role: transport.RoleScreen}),
		server.LocalAddr()); err != nil {
		t.Fatalf("hello: %v", err)
	}

	select {
	case id := <-ended:
		if id != 7 {
			t.Fatalf("reaped session %d, want 7", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle session was never reaped")
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Reaped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %v, want Reaped=1", h.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if s := h.Stats(); s.ActiveSessions != 0 || s.Admitted != 1 {
		t.Errorf("final stats = %v, want 0 active / 1 admitted", s)
	}
}

// TestHubDrain verifies that a draining hub keeps existing sessions but
// rejects new hellos with TypeBusy.
func TestHubDrain(t *testing.T) {
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	first := mem.Endpoint("first")
	if err := first.SendTo(
		transport.AppendHello(nil, transport.Hello{Session: 1, Role: transport.RoleScreen}),
		server.LocalAddr()); err != nil {
		t.Fatalf("hello: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Admitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first session never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	h.Drain()
	second := mem.Endpoint("second")
	if err := second.SendTo(
		transport.AppendHello(nil, transport.Hello{Session: 2, Role: transport.RoleScreen}),
		server.LocalAddr()); err != nil {
		t.Fatalf("hello: %v", err)
	}
	msg, err := second.Recv(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatalf("waiting for busy reject: %v", err)
	}
	if msg.Type != transport.TypeBusy || msg.Session != 2 {
		t.Fatalf("got %v packet for session %d, want TypeBusy for 2", msg.Type, msg.Session)
	}
	if s := h.Stats(); s.Rejected != 1 || s.ActiveSessions != 1 {
		t.Errorf("stats = %v, want 1 rejected / 1 active", s)
	}
	h.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDispatchInArrivalOrder checks that a batch is handled message by
// message: a Bye ends its session before the next message in the same
// batch is routed, so that message sees the freed slot and the freed id.
func TestDispatchInArrivalOrder(t *testing.T) {
	msg := func(typ transport.PacketType, id uint32, from net.Addr) transport.Message {
		return transport.Message{Type: typ, Session: id, From: from,
			Hello: transport.Hello{Session: id, Role: transport.RoleScreen}}
	}
	run := func(capacity int, second uint32) (Snapshot, []SessionInfo) {
		mem := NewMemNet()
		h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: capacity}, mem.Endpoint("hub"))
		defer h.Close()
		from := mem.Endpoint("client").LocalAddr()
		h.DispatchBatch([]transport.Message{msg(transport.TypeHello, 1, from)})
		h.DispatchBatch([]transport.Message{msg(transport.TypeBye, 1, from), msg(transport.TypeHello, second, from)})
		return h.Stats(), h.SessionInfos()
	}
	t.Run("bye frees the slot", func(t *testing.T) {
		s, infos := run(1, 2)
		if s.Admitted != 2 || s.Rejected != 0 || len(infos) != 1 || infos[0].ID != 2 {
			t.Errorf("[Bye 1, Hello 2] at capacity 1: %v, sessions %v; want 2 admitted, 0 rejected, session 2 active",
				s, infos)
		}
	})
	t.Run("bye frees the id", func(t *testing.T) {
		s, infos := run(2, 1)
		if s.Admitted != 2 || s.Ended != 1 || len(infos) != 1 || infos[0].ID != 1 {
			t.Errorf("[Bye 1, Hello 1]: %v, sessions %v; want 2 admitted, 1 ended, session 1 active",
				s, infos)
		}
	})
}

// A session's result keeps only its newest isdKeep measurements, oldest
// first, while Measurements counts them all: a session that lives for
// days must not grow its result by 8 B a second.
func TestSessionResultKeepsNewestISDs(t *testing.T) {
	h := New(Config{TickEvery: -1, IdleTimeout: -1}, NewMemNet().Endpoint("hub"))
	defer h.Close()
	s := &session{id: 1, hub: h}
	const extra = 37
	isd := func(i int) float64 { return float64(i) * 1e-4 }
	for i := 0; i < isdKeep+extra; i++ {
		s.ISDMeasurement(float64(i), estimator.Measurement{ISDSeconds: isd(i)})
		if want := min(i+1, isdKeep); len(s.res.ISDs) != want {
			t.Fatalf("after %d measurements: %d ISDs kept, want %d", i+1, len(s.res.ISDs), want)
		}
	}
	res := s.result()
	if res.Measurements != isdKeep+extra {
		t.Errorf("Measurements = %d, want %d", res.Measurements, isdKeep+extra)
	}
	for j, v := range res.ISDs {
		if want := isd(extra + j); v != want {
			t.Fatalf("ISDs[%d] = %v, want measurement %d (%v)", j, v, extra+j, want)
		}
	}
	if c := cap(res.ISDs); c > 2*isdKeep {
		t.Errorf("ISDs capacity %d for %d kept", c, isdKeep)
	}
}
