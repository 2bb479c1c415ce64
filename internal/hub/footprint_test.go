package hub

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/dsp"
	"ekho/internal/estimator"
	"ekho/internal/serverpipe"
	"ekho/internal/transport"
)

// fixedFootprintBound is what a serving hub with no session may keep on
// the heap: its registry, the receive batch, the tick scratch and its
// metrics. Per-session memory is budgeted separately
// (TestHubSessionFootprint, and serverpipe.TestSessionFootprint for the
// pipeline alone).
const fixedFootprintBound = 256 << 10

// Per-session memory budget of a hosting hub: a session's pipeline plus
// its hub buffers (reorder slots, packet buffers, results), with the
// shared clip, template and plans excluded.
const (
	// hubSessionLiveBytes bounds each session's live heap: 0.307 MB on
	// SWB32 and 0.295 MB lossless, with a 5 % margin. With the detector's
	// delay line at complex128 it read 0.369 and 0.357 MB; retaining
	// full-rate float32 chat for its refiner, 0.51 and 0.49 MB; and 0.59
	// and 0.56 MB before it kept the coarse baseband at complex64 and its
	// scratch per call.
	hubSessionLiveBytes = 330 << 10
	// hubSessionAllocBytes bounds what each session allocates once warm
	// (after its first 2 s), ≈ 6 KB: detections and measurements only,
	// since nothing a session owns regrows after admission. A record
	// book grown by append, as before, read 24 KB.
	hubSessionAllocBytes = 12 << 10
)

// TestHubFixedFootprint measures the heap a default hub retains once it
// is serving on a MemNet with no session — New plus a running Serve — as
// the live-heap difference after garbage collection, and holds it to
// fixedFootprintBound. -v prints the measurement.
func TestHubFixedFootprint(t *testing.T) {
	server := NewMemNet().Endpoint("hub")
	serving := make(chan struct{})
	base := liveHeap()
	h := New(Config{Logf: func(format string, _ ...any) {
		if strings.HasPrefix(format, "hub: serving on") {
			close(serving)
		}
	}}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	select {
	case <-serving:
	case <-time.After(5 * time.Second):
		t.Fatal("hub never started serving")
	}
	time.Sleep(50 * time.Millisecond) // a few loop passes
	retained := liveHeap() - base
	runtime.KeepAlive(h)
	h.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Logf("idle hub retains %.1f KB of heap (bound %d KB)",
		float64(retained)/1024, fixedFootprintBound>>10)
	if retained > fixedFootprintBound {
		t.Errorf("idle hub retains %d B of heap, want <= %d B", retained, fixedFootprintBound)
	}
}

// TestSessionEventsAllocsWithoutLogf holds a session's per-event sink
// calls to zero allocations when the hub has no Logf: the log lines'
// arguments must not be boxed for a sink that prints nothing. Skipped
// under -race, which distorts allocation counts.
func TestSessionEventsAllocsWithoutLogf(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts allocation counts")
	}
	h := New(Config{TickEvery: -1, IdleTimeout: -1}, NewMemNet().Endpoint("hub"))
	defer h.Close()
	s := h.newSession(1, transport.WireV2)
	// A full ISD window: each measurement shifts it in place, as in a
	// session past its first isdKeep measurements.
	s.res.ISDs = make([]float64, isdKeep)
	m := estimator.Measurement{ISDSeconds: 0.0123, DetectionTime: 4.5, MarkerTime: 4.1, Strength: 17}
	act := compensator.Action{Stream: compensator.AccessoryStream, InsertFrames: 1, InsertSamples: 7}
	rs := compensator.Resample{Stream: compensator.AccessoryStream, PPM: -97.5}
	if n := testing.AllocsPerRun(200, func() { s.ISDMeasurement(5, m) }); n != 0 {
		t.Errorf("ISDMeasurement allocates %.0f times per call with nil Logf", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.MarkerExpired(96000)
		s.CompensationAction(5, act)
		s.ResampleApplied(5, rs)
	}); n != 0 {
		t.Errorf("MarkerExpired + CompensationAction + ResampleApplied allocate %.0f times with nil Logf", n)
	}
}

// markerPlanAlloc builds a hub, admits one session (which synthesizes
// the clip and the PN marker) and returns what building dsp's real plan
// for the marker filter's transform size allocates afterwards. Building
// the plan caches it, so the probe runs once per process.
var markerPlanAlloc = sync.OnceValue(func() uint64 {
	h := New(Config{TickEvery: -1, IdleTimeout: -1}, NewMemNet().Endpoint("hub"))
	defer h.Close()
	h.newSession(1, transport.WireV2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dsp.RealPlanFor(markerPlanSize)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
})

// markerPlanSize is the filter transform of a 48,000-sample marker and
// its 511 taps.
const markerPlanSize = 1 << 16

// TestAdmissionCachesNoMarkerPlan: the marker is filtered once, at the
// first admission, and nothing the hub runs later needs a transform of
// that size, so its plan (≈ 0.9 MB of tables) must not stay in dsp's
// shared cache. Were it cached, building it again would allocate nothing;
// it must allocate at least its own and its half-size plan's twiddles.
func TestAdmissionCachesNoMarkerPlan(t *testing.T) {
	const n = markerPlanSize
	twiddles := uint64(n/4+1+3*n/8) * 16
	got := markerPlanAlloc()
	t.Logf("RealPlanFor(%d) after an admission allocated %d B (twiddles alone %d B)", n, got, twiddles)
	if got < twiddles {
		t.Errorf("RealPlanFor(%d) allocated %d B after an admission: the plan was already cached", n, got)
	}
}

// liveHeap returns the bytes of live heap objects after two full
// collections (one alone left the reading ±10 KB noisy).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// discardConn is a MemNet endpoint whose sends vanish: MemNet copies
// every datagram it delivers, and the footprint below counts what the hub
// keeps, not what a network would carry.
type discardConn struct{ Conn }

func (discardConn) SendBatch(pkts []transport.Packet) (int, error) { return len(pkts), nil }
func (discardConn) SendTo([]byte, net.Addr) error                  { return nil }

// TestHubSessionFootprint hosts 32 sessions per chat profile on a hub
// driven tick by tick, each chatting back the marked screen audio with
// its playback records, and holds each session to the budget above: live
// heap after 20 s, and bytes allocated after a 2 s warm-up. -v prints the
// measurements. Skipped under -race, whose instrumentation distorts both.
func TestHubSessionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("20 s of session time for 64 sessions")
	}
	if raceEnabled {
		t.Skip("the race detector distorts heap and allocation counts")
	}
	for _, prof := range []codec.Profile{codec.SWB32, codec.Lossless} {
		t.Run(prof.Name, func(t *testing.T) { hubSessionFootprint(t, prof) })
	}
}

func hubSessionFootprint(t *testing.T, prof codec.Profile) {
	const (
		sessions = 32
		ticks    = 20 * 50
		warm     = 2 * 50
		atten    = 0.1
	)
	mem := NewMemNet()
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: sessions, Codec: prof},
		discardConn{mem.Endpoint("hub")})
	defer h.Close()
	screen, ctrl := mem.Endpoint("screen").LocalAddr(), mem.Endpoint("ctrl").LocalAddr()

	// Every session streams the same clip and markers, so one probe
	// pipeline renders the uplink they all send back: the marked screen
	// audio, attenuated at zero air delay and encoded, with the accessory's
	// playback record for the same tick. The probe also warms the shared
	// clip, template caches, plans and scratch free list, which belong to
	// no session.
	game, seq := h.media()
	probe := serverpipe.New(serverpipe.Config{
		Game: game, Seq: seq, MarkerC: h.cfg.MarkerC, Codec: prof})
	enc := codec.NewEncoder(prof)
	frame := make([]float64, audio.FrameSamples)
	mic := make([]float64, audio.FrameSamples)
	chats := make([]transport.Chat, ticks)
	for i := range chats {
		fi := probe.NextScreenFrame(frame)
		for j, v := range frame {
			mic[j] = v * atten
		}
		pkt, err := enc.Encode(mic)
		if err != nil {
			t.Fatal(err)
		}
		c := transport.Chat{Seq: fi.Seq, ADCMicros: int64(fi.Seq) * 20000, Encoded: pkt}
		if fa := probe.NextAccessoryFrame(frame); fa.ContentStart >= 0 {
			c.Records = []transport.PlaybackRecord{{
				ContentStart: fa.ContentStart,
				N:            uint16(audio.FrameSamples - fa.ContentOff),
				LocalMicros:  int64(fa.Seq)*20000 + int64(fa.ContentOff)*1e6/audio.SampleRate,
			}}
		}
		chats[i] = c
		probe.OfferChat(fi.Seq, float64(fi.Seq)*frameSec, pkt)
	}
	probe = nil

	base := liveHeap()
	msgs := make([]transport.Message, 0, 2*sessions)
	for id := uint32(1); id <= sessions; id++ {
		for _, hello := range []struct {
			role transport.Role
			from net.Addr
		}{{transport.RoleScreen, screen}, {transport.RoleController, ctrl}} {
			msgs = append(msgs, transport.Message{Type: transport.TypeHello, Session: id,
				Hello: transport.Hello{Session: id, Role: hello.role}, From: hello.from})
		}
	}
	h.DispatchBatch(msgs)
	if got := h.Stats().ActiveSessions; got != sessions {
		t.Fatalf("%d sessions admitted, want %d", got, sessions)
	}
	msgs = msgs[:sessions]
	var warmed, streamed runtime.MemStats
	for tick := 0; tick < ticks; tick++ {
		if tick == warm {
			runtime.ReadMemStats(&warmed)
		}
		h.Tick()
		for i := range msgs {
			id := uint32(i + 1)
			c := chats[tick]
			c.Session = id
			msgs[i] = transport.Message{Type: transport.TypeChat, Session: id, Chat: c, From: ctrl}
		}
		h.DispatchBatch(msgs)
	}
	runtime.ReadMemStats(&streamed)
	live := liveHeap() - base
	runtime.KeepAlive(chats)

	for _, info := range h.SessionInfos() {
		if info.Measurements < 10 {
			t.Fatalf("session %d measured %d markers in 20 s: the detector was not exercised",
				info.ID, info.Measurements)
		}
	}
	livePer := live / sessions
	allocPer := int64(streamed.TotalAlloc-warmed.TotalAlloc) / sessions
	t.Logf("%s: live heap %.3f MB/session (budget %.3f), allocated once warm %.1f KB/session (budget %d)",
		prof.Name, float64(livePer)/(1<<20), float64(hubSessionLiveBytes)/(1<<20),
		float64(allocPer)/1024, hubSessionAllocBytes>>10)
	if livePer > hubSessionLiveBytes {
		t.Errorf("live heap %d B per session, budget %d", livePer, hubSessionLiveBytes)
	}
	if allocPer > hubSessionAllocBytes {
		t.Errorf("allocated %d B per session once warm, budget %d", allocPer, hubSessionAllocBytes)
	}
}
