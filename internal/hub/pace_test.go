package hub

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ekho/internal/codec"
	"ekho/internal/transport"
)

// TestTickGridAdvance pins the pace loop's schedule: a wake-up inside the
// due tick's period runs that tick; a later one also runs the one overdue
// tick before it and skips every older one; the next deadline always
// stays on the original grid.
func TestTickGridAdvance(t *testing.T) {
	const every = 20 * time.Millisecond
	origin := time.Unix(1000, 0)
	g := tickGrid{origin: origin, every: every}
	for _, c := range []struct {
		wake        time.Duration // after origin
		run         int
		skipped     int64
		nextAtTicks int64
	}{
		{0, 1, 0, 1},
		{21 * time.Millisecond, 1, 0, 2},   // tick 1, 1 ms late
		{59 * time.Millisecond, 1, 0, 3},   // tick 2, 19 ms late: tick 3 not yet due
		{61 * time.Millisecond, 1, 0, 4},   // tick 3 on time
		{105 * time.Millisecond, 2, 0, 6},  // tick 4 overdue, tick 5 due: both run
		{185 * time.Millisecond, 2, 2, 10}, // ticks 8 and 9 run, 6 and 7 are skipped
		{200 * time.Millisecond, 1, 0, 11},
	} {
		run, skipped := g.advance(origin.Add(c.wake))
		if run != c.run || skipped != c.skipped {
			t.Errorf("wake at %v: ran %d and skipped %d ticks, want %d and %d", c.wake, run, skipped, c.run, c.skipped)
		}
		if want := origin.Add(time.Duration(c.nextAtTicks) * every); !g.next().Equal(want) {
			t.Errorf("wake at %v: next tick at %v, want %v (tick %d)",
				c.wake, g.next().Sub(origin), want.Sub(origin), c.nextAtTicks)
		}
	}
}

// TestStalledShardSkipsTicksOnGrid stalls the pace loop inside one
// shard's session handling for about fifteen ticks: the OnSessionReady
// callback, which runs on the loop, sleeps. Every session waits for it,
// which is what running to completion costs, but the loop counts the
// overrun and the skipped ticks and keeps its grid: media after the stall
// arrives at the phase it had before, not at the phase of the release.
func TestStalledShardSkipsTicksOnGrid(t *testing.T) {
	const every = 20 * time.Millisecond
	r := stallLoop(t, every, false)
	if skipped := r.s1.TicksSkipped - r.s0.TicksSkipped; skipped < 5 {
		t.Errorf("stall of ~15 ticks skipped %d ticks, want >= 5", skipped)
	}
	if r.s1.TickOverruns == r.s0.TickOverruns {
		t.Errorf("stall of ~15 ticks counted no tick overrun: %v", r.s1)
	}
	if d := wrap(r.after-r.before, every); d < -every/4 || d > every/4 {
		t.Errorf("media phase moved by %v across the stall (before %v, after %v), want within ±%v",
			d, r.before, r.after, every/4)
	}
}

// TestWedgedShardKeepsServing stalls the pace loop the same way and sends
// a Hello for another session during the stall. The socket is read as
// soon as the stall ends: that Hello is admitted within one tick after
// it, and the session's Bye ends it.
func TestWedgedShardKeepsServing(t *testing.T) {
	const every = 20 * time.Millisecond
	r := stallLoop(t, every, true)
	if d := r.admitted.Sub(r.released); d > every {
		t.Errorf("Hello sent during the stall admitted %v after it ended, want within %v", d, every)
	}
}

// stallRun is what stallLoop measured: the hub's stats and session 1's
// media phase before and after the stall, and when the stall ended and
// (with a late Hello) when that session was admitted.
type stallRun struct {
	s0, s1             Snapshot
	before, after      time.Duration
	released, admitted time.Time
}

// stallLoop runs a hub on a MemNet with one streaming session, then
// admits a second session whose OnSessionReady callback stalls the loop
// for about fifteen ticks and releases it half a period off the grid.
// With lateHello, a third session says Hello during the stall and Bye
// after it; stallLoop fails the test if that Bye does not end it.
func stallLoop(t *testing.T, every time.Duration, lateHello bool) stallRun {
	t.Helper()
	const (
		slow = uint32(2) // the session whose handling stalls
		late = uint32(3) // the session that says Hello during the stall
	)
	var (
		r   stallRun
		ref time.Time // the grid reference for media phases
	)
	stalled := make(chan struct{})
	released := make(chan time.Time, 1)
	admitted := make(chan time.Time, 1)
	ended := make(chan uint32, 8)
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	h := New(Config{
		TickEvery: every, IdleTimeout: -1, Capacity: 4,
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "hub: session %d admitted") && args[0] == late {
				admitted <- time.Now()
			}
		},
		// ref and r.before are set before the slow session's Hellos are
		// sent, which orders them before this callback reads them.
		OnSessionReady: func(id uint32) {
			if id != slow {
				return
			}
			close(stalled)
			time.Sleep(15 * every)
			// Release half a period off the grid, where a loop that
			// re-phased to the release would put every later tick.
			for wrap(phaseOf(time.Now(), ref, every)-r.before, every) < every/2-every/10 {
				time.Sleep(every / 20)
			}
			released <- time.Now()
		},
		OnSessionEnd: func(id uint32, _ SessionResult) { ended <- id },
	}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer func() {
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	send := func(from Conn, b []byte) {
		t.Helper()
		if err := from.SendTo(b, server.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	join := func(id uint32) {
		t.Helper()
		for _, role := range []transport.Role{transport.RoleScreen, transport.RoleController} {
			send(mem.Endpoint(fmt.Sprintf("%v-%d", role, id)), transport.AppendHello(nil, transport.Hello{Session: id, Role: role}))
		}
	}
	wait := func(what string, ch <-chan time.Time) time.Time {
		t.Helper()
		select {
		case at := <-ch:
			return at
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: %v", what, h.Stats())
			return time.Time{}
		}
	}

	screen := mem.Endpoint(fmt.Sprintf("%v-%d", transport.RoleScreen, 1))
	arrivals := make(chan time.Time, 1024)
	go func() {
		for {
			msg, err := screen.Recv(time.Now().Add(10 * time.Second))
			if err != nil {
				return
			}
			if msg.Type == transport.TypeMedia {
				arrivals <- time.Now()
			}
		}
	}()
	collect := func(n int) []time.Time {
		t.Helper()
		ts := make([]time.Time, 0, n)
		for len(ts) < n {
			ts = append(ts, wait(fmt.Sprintf("media stopped after %d of %d frames", len(ts), n), arrivals))
		}
		return ts
	}

	join(1)
	pre := collect(30)[5:]
	ref = pre[0]
	r.before = medianPhase(pre, ref, every)
	r.s0 = h.Stats()

	join(slow)
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatalf("slow session never became ready: %v", h.Stats())
	}
	lateEP := mem.Endpoint("late")
	if lateHello {
		send(lateEP, transport.AppendHello(nil, transport.Hello{Session: late, Role: transport.RoleScreen}))
	}
	r.released = wait("stall never ended", released)
	if lateHello {
		r.admitted = wait("Hello sent during the stall never admitted", admitted)
		send(lateEP, transport.AppendBye(nil, transport.Bye{Session: late}))
		select {
		case id := <-ended:
			if id != late {
				t.Fatalf("session %d ended, want %d", id, late)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Bye after the stall not handled: %v", h.Stats())
		}
	}

	for len(arrivals) > 0 { // frames from before the stall
		<-arrivals
	}
	post := collect(25)[5:] // past the catch-up tick at the release
	r.after = medianPhase(post, ref, every)
	r.s1 = h.Stats()
	return r
}

// phaseOf returns t's offset on the grid through ref, in [0, every).
func phaseOf(t, ref time.Time, every time.Duration) time.Duration {
	d := t.Sub(ref) % every
	if d < 0 {
		d += every
	}
	return d
}

// wrap maps a phase difference into [-every/2, every/2).
func wrap(d, every time.Duration) time.Duration {
	d %= every
	if d >= every/2 {
		d -= every
	} else if d < -every/2 {
		d += every
	}
	return d
}

// medianPhase is the median of the arrivals' offsets from ref's grid,
// wrapped around ref so arrivals straddling a tick do not split.
func medianPhase(ts []time.Time, ref time.Time, every time.Duration) time.Duration {
	ds := make([]time.Duration, len(ts))
	for i, at := range ts {
		ds[i] = wrap(phaseOf(at, ref, every), every)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestPaceLoopWakeupsPerTick runs a hub on real loopback UDP with 4 and
// then 16 streaming sessions, each chatting at 50 datagrams a second
// spread evenly over the tick, and counts the pace loop's wake-ups, which
// are every goroutine wake-up the hub makes to do work. The loop must wake
// about once per tick whatever the session count: at most 1.1 times. A
// hub woken per datagram wakes 4 or 16 times per tick. The hub keeps its
// sessions in one registry, so each run is named stripes=1, the name the
// one-stripe case had when the registry could be split.
func TestPaceLoopWakeupsPerTick(t *testing.T) {
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("sessions=%d", n), func(t *testing.T) {
			t.Run("stripes=1", func(t *testing.T) { wakeupsPerTick(t, n) })
		})
	}
}

func wakeupsPerTick(t *testing.T, sessions int) {
	const (
		every  = 20 * time.Millisecond
		window = time.Second
	)
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan uint32, sessions)
	h := New(Config{
		Capacity:       sessions,
		TickEvery:      every,
		IdleTimeout:    -1,
		OnSessionReady: func(id uint32) { ready <- id },
	}, conn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer func() {
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// Each session's screen socket also carries its chat; neither socket
	// is read, so the media the hub sends them is dropped in the kernel.
	socks := make([]*transport.Conn, 0, 2*sessions)
	defer func() {
		for _, c := range socks {
			c.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		for _, role := range []transport.Role{transport.RoleScreen, transport.RoleController} {
			c, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			socks = append(socks, c)
			if err := c.SendTo(transport.AppendHello(nil, transport.Hello{Session: uint32(i + 1), Role: role}), conn.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < sessions; i++ {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d sessions ready: %v", i, sessions, h.Stats())
		}
	}
	time.Sleep(5 * every) // past the admission ticks, when the loop still reads per datagram

	encoded, err := codec.NewEncoder(codec.SWB32).EncodeTo(nil, make([]float64, 960))
	if err != nil {
		t.Fatal(err)
	}
	s0, t0 := h.Stats(), time.Now()
	var buf []byte
	gap := every / time.Duration(sessions)
	for k := 0; time.Duration(k)*gap < window; k++ {
		if d := time.Until(t0.Add(time.Duration(k) * gap)); d > 0 {
			time.Sleep(d)
		}
		i, seq := k%sessions, uint32(k/sessions)
		buf, err = transport.AppendChat(buf[:0], transport.Chat{
			Seq: seq, Session: uint32(i + 1), ADCMicros: int64(seq) * 20000, Encoded: encoded})
		if err != nil {
			t.Fatal(err)
		}
		if err := socks[2*i].SendTo(buf, conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * every) // the last chats are read
	s1, t1 := h.Stats(), time.Now()

	ticks := float64(t1.Sub(t0)) / float64(every)
	chats := s1.PacketsIn - s0.PacketsIn
	if min := int64(0.8 * 50 * window.Seconds() * float64(sessions)); chats < min {
		t.Fatalf("hub received %d chat datagrams, want >= %d", chats, min)
	}
	loop := float64(s1.LoopWakeups-s0.LoopWakeups) / ticks
	t.Logf("%d sessions: %d chats in %.0f ticks; pace loop wake-ups per tick %.2f; %d ticks skipped, %d overruns",
		sessions, chats, ticks, loop, s1.TicksSkipped-s0.TicksSkipped, s1.TickOverruns-s0.TickOverruns)
	if loop > 1.1 {
		t.Errorf("pace loop woke %.2f times per tick, want <= 1.1", loop)
	}
}

// TestServeSizesReadBuffer checks how Serve sizes a UDP socket's receive
// buffer from Config.Capacity (four ticks of the largest chat datagram
// per session): it grows a buffer that is too small, never shrinks one
// that is large enough, publishes the size in effect, and warns, naming
// net.core.rmem_max, when the kernel grants less than it asked for.
func TestServeSizesReadBuffer(t *testing.T) {
	rmemMax := -1
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		rmemMax, _ = strconv.Atoi(strings.TrimSpace(string(b)))
	}
	serve := func(t *testing.T, capacity int) (before, metric, after int, log string) {
		t.Helper()
		conn, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if before, err = conn.ReadBuffer(); err != nil {
			t.Skipf("cannot read the receive buffer back: %v", err)
		}
		var mu sync.Mutex
		var lines strings.Builder
		h := New(Config{Capacity: capacity, IdleTimeout: -1, Logf: func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&lines, format+"\n", args...)
			mu.Unlock()
		}}, conn)
		serveErr := make(chan error, 1)
		go func() { serveErr <- h.Serve() }()
		for deadline := time.Now().Add(5 * time.Second); h.stats.rcvbuf.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		metric = int(h.stats.rcvbuf.Load())
		if after, err = conn.ReadBuffer(); err != nil {
			t.Error(err)
		}
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return before, metric, after, lines.String()
	}

	t.Run("grows", func(t *testing.T) {
		const capacity = 32
		want := rcvbufHeadroom * capacity * chatRcvbufBytes
		if rmemMax >= 0 && rmemMax < want {
			want = rmemMax
		}
		_, metric, after, _ := serve(t, capacity)
		if metric < want {
			t.Errorf("ekho_socket_rcvbuf_bytes = %d, want >= %d", metric, want)
		}
		if after != metric {
			t.Errorf("socket reads back %d B, metric says %d B", after, metric)
		}
	})
	t.Run("never shrinks", func(t *testing.T) {
		before, metric, after, _ := serve(t, 1)
		if before < rcvbufHeadroom*chatRcvbufBytes {
			t.Skipf("default receive buffer %d B is below one session's need", before)
		}
		if after != before || metric != before {
			t.Errorf("capacity 1 changed the receive buffer from %d B to %d B (metric %d B), want it kept",
				before, after, metric)
		}
	})
	t.Run("warns when capped", func(t *testing.T) {
		if rmemMax <= 0 {
			t.Skip("net.core.rmem_max unknown")
		}
		// Linux grants at most twice rmem_max; ask for more than that.
		capacity := 2*rmemMax/(rcvbufHeadroom*chatRcvbufBytes) + 1
		_, metric, _, log := serve(t, capacity)
		if want := rcvbufHeadroom * capacity * chatRcvbufBytes; metric >= want {
			t.Fatalf("kernel granted %d B of %d B despite rmem_max %d", metric, want, rmemMax)
		}
		if !strings.Contains(log, "net.core.rmem_max") {
			t.Errorf("no warning naming net.core.rmem_max in the log:\n%s", log)
		}
	})
}
