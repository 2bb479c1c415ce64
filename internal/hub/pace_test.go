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

// TestStalledShardSkipsTicksOnGrid wedges a one-shard hub's worker for
// about fifteen ticks. The pace loop must not wait on it: it counts the
// ticks the full queue refuses as skipped and keeps its grid, so media
// after the stall arrives at the phase it had before, not at the phase of
// the release.
func TestStalledShardSkipsTicksOnGrid(t *testing.T) {
	const every = 20 * time.Millisecond
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	h := New(Config{TickEvery: every, IdleTimeout: -1, Shards: 1, QueueDepth: 1, Capacity: 1}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer func() {
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	screen, ctrl := mem.Endpoint("screen"), mem.Endpoint("ctrl")
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
	for ep, role := range map[Conn]transport.Role{screen: transport.RoleScreen, ctrl: transport.RoleController} {
		if err := ep.SendTo(transport.EncodeHello(transport.Hello{Session: 1, Role: role}), server.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(n int) []time.Time {
		t.Helper()
		ts := make([]time.Time, 0, n)
		for len(ts) < n {
			select {
			case at := <-arrivals:
				ts = append(ts, at)
			case <-time.After(5 * time.Second):
				t.Fatalf("media stopped after %d of %d frames: %v", len(ts), n, h.Stats())
			}
		}
		return ts
	}

	pre := collect(30)[5:]
	ref := pre[0]
	before := medianPhase(pre, ref, every)
	skipped0 := h.Stats().TicksSkipped

	// Wedge the worker on a stats request nobody reads yet; the next
	// tick fills the one-deep queue, which refuses the ones after it.
	block := make(chan []SessionInfo)
	if !h.enqueue(h.shards[0], work{kind: workStats, stats: block}) {
		t.Fatal("enqueue stats probe")
	}
	time.Sleep(15 * every)
	// Release it half a period off the grid, where a loop that re-phased
	// to the release would put every later tick.
	for wrap(phaseOf(time.Now(), ref, every)-before, every) < every/2-every/10 {
		time.Sleep(every / 20)
	}
	<-block
	post := collect(25)[5:] // past the frames queued behind the stall
	after := medianPhase(post, ref, every)

	if skipped := h.Stats().TicksSkipped - skipped0; skipped < 5 {
		t.Errorf("stall of ~15 ticks skipped %d ticks, want >= 5", skipped)
	}
	if d := wrap(after-before, every); d < -every/4 || d > every/4 {
		t.Errorf("media phase moved by %v across the stall (before %v, after %v), want within ±%v",
			d, before, after, every/4)
	}
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
// spread evenly over the tick. Wake-ups per tick must stay bounded by a
// constant whatever the session count: at most two for the pace loop and
// two per shard worker.
func TestPaceLoopWakeupsPerTick(t *testing.T) {
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("sessions=%d", n), func(t *testing.T) { wakeupsPerTick(t, n) })
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
			if err := c.SendTo(transport.EncodeHello(transport.Hello{Session: uint32(i + 1), Role: role}), conn.LocalAddr()); err != nil {
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
	shardWakeups := func() []int64 {
		w := make([]int64, len(h.shards))
		for i, sh := range h.shards {
			w[i] = sh.cWakeups.Load()
		}
		return w
	}
	s0, w0, t0 := h.Stats(), shardWakeups(), time.Now()
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
	time.Sleep(2 * every) // the last chats reach their shards
	s1, w1, t1 := h.Stats(), shardWakeups(), time.Now()

	ticks := float64(t1.Sub(t0)) / float64(every)
	chats := s1.PacketsIn - s0.PacketsIn
	if min := int64(0.8 * 50 * window.Seconds() * float64(sessions)); chats < min {
		t.Fatalf("hub received %d chat datagrams, want >= %d", chats, min)
	}
	loop := float64(s1.LoopWakeups-s0.LoopWakeups) / ticks
	t.Logf("%d sessions: %d chats in %.0f ticks; pace loop %.2f wake-ups/tick; %d ticks skipped",
		sessions, chats, ticks, loop, s1.TicksSkipped-s0.TicksSkipped)
	if loop > 2 {
		t.Errorf("pace loop woke %.2f times per tick, want <= 2", loop)
	}
	for i := range w1 {
		per := float64(w1[i]-w0[i]) / ticks
		t.Logf("shard %d: %.2f wake-ups/tick", i, per)
		if per > 2 {
			t.Errorf("shard %d woke %.2f times per tick, want <= 2", i, per)
		}
	}
}

// TestWedgedShardKeepsServing runs a two-shard hub with its internal
// ticker while one shard's worker is wedged and its session floods media.
// The pace loop must keep reading the socket for the other shard: a Hello
// for a session there is admitted and its Bye ends it, while the wedged
// shard sheds its data and misses its ticks.
func TestWedgedShardKeepsServing(t *testing.T) {
	const every = 20 * time.Millisecond
	mem := NewMemNet()
	server := mem.Endpoint("hub")
	ended := make(chan uint32, 4)
	h := New(Config{
		TickEvery: every, IdleTimeout: -1,
		Shards: 2, QueueDepth: 2, Capacity: 8,
		OnSessionEnd: func(id uint32, r SessionResult) { ended <- id },
	}, server)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer func() {
		h.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	// Session 1 is wedged; the other session lives on the other shard.
	wedged, other := uint32(1), uint32(2)
	for shardIndex(other, 2) == shardIndex(wedged, 2) {
		other++
	}
	waitStats := func(what string, ok func(Snapshot) bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !ok(h.Stats()); {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %v", what, h.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	client := mem.Endpoint("client")
	send := func(b []byte) {
		t.Helper()
		if err := client.SendTo(b, server.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	send(transport.EncodeHello(transport.Hello{Session: wedged, Role: transport.RoleScreen}))
	waitStats("first session never admitted", func(s Snapshot) bool { return s.Admitted == 1 })

	block := make(chan []SessionInfo)
	if !h.enqueue(h.shards[shardIndex(wedged, 2)], work{kind: workStats, stats: block}) {
		t.Fatal("enqueue stats probe")
	}
	defer func() { <-block }() // un-wedge the worker so Serve can return
	for seq := uint32(0); h.Stats().Shed == 0 || h.Stats().TicksSkipped == 0; seq++ {
		if seq > 5000 {
			t.Fatalf("wedged shard neither sheds nor misses ticks: %v", h.Stats())
		}
		send(mediaDatagram(t, wedged, seq))
		time.Sleep(time.Millisecond)
	}

	send(transport.EncodeHello(transport.Hello{Session: other, Role: transport.RoleScreen}))
	waitStats("Hello for a healthy shard not admitted while another is wedged",
		func(s Snapshot) bool { return s.Admitted == 2 })
	send(transport.EncodeBye(transport.Bye{Session: other}))
	select {
	case id := <-ended:
		if id != other {
			t.Fatalf("session %d ended, want %d", id, other)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Bye for a healthy shard not handled while another is wedged: %v", h.Stats())
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
