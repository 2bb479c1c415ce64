package hub

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ekho"
	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// MemNet is an in-process datagram network with UDP semantics (unreliable,
// unordered across endpoints, drop-on-overflow): tests and benchmarks use
// it to run many loopback sessions against a hub without sockets, driven
// faster than real time.
type MemNet struct {
	mu  sync.Mutex
	eps map[string]*memConn
}

// NewMemNet returns an empty in-process network.
func NewMemNet() *MemNet { return &MemNet{eps: make(map[string]*memConn)} }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type datagram struct {
	b []byte
	// from is the sender's boxed address (boxed once per endpoint, so
	// batch receives stay allocation-free on the receiver).
	from net.Addr
}

type memConn struct {
	net  *MemNet
	addr memAddr
	// addrI is addr pre-boxed as a net.Addr.
	addrI net.Addr
	ch    chan datagram
	done  chan struct{}
	once  sync.Once
	// dec decodes inbound datagrams (default: v2 only), mirroring
	// transport.Conn's pluggable wire codec seam.
	dec transport.Decoder
}

// SetDecoder replaces the endpoint's wire decoder (e.g. rtp.NewCodec()
// to accept RTP framing). Call before any receive, as on
// *transport.Conn; nil is ignored.
func (c *memConn) SetDecoder(d transport.Decoder) {
	if d != nil {
		c.dec = d
	}
}

// Endpoint creates (or returns) the named endpoint. The queue depth
// plays the role of a socket buffer: sends to a full endpoint are
// dropped, exactly like UDP under pressure.
func (n *MemNet) Endpoint(name string) Conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.eps[name]; ok {
		return c
	}
	c := &memConn{
		net:  n,
		addr: memAddr(name),
		ch:   make(chan datagram, 1024),
		done: make(chan struct{}),
		dec:  transport.V2{},
	}
	c.addrI = c.addr
	n.eps[name] = c
	return c
}

// Forget implements hub.Conn, passing the session to the endpoint's decoder.
func (c *memConn) Forget(session uint32) { c.dec.Forget(session) }

func (c *memConn) LocalAddr() net.Addr { return c.addr }

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *memConn) SendTo(b []byte, to net.Addr) error {
	c.net.mu.Lock()
	peer := c.net.eps[to.String()]
	c.net.mu.Unlock()
	if peer == nil {
		return fmt.Errorf("memnet: no route to %s", to)
	}
	d := datagram{b: append([]byte(nil), b...), from: c.addrI}
	select {
	case peer.ch <- d:
	default:
		// Receiver buffer full: drop, like a kernel UDP socket.
	}
	return nil
}

func (c *memConn) Recv(deadline time.Time) (transport.Message, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case <-c.done:
			return transport.Message{}, net.ErrClosed
		case d := <-c.ch:
			var msg transport.Message
			if err := c.dec.DecodeInto(&msg, d.b); err != nil {
				continue // ignore stray datagrams
			}
			msg.From = d.from
			return msg, nil
		case <-timer.C:
			return transport.Message{}, os.ErrDeadlineExceeded
		}
	}
}

// RecvBatch implements hub.Conn: one blocking receive, then a
// non-blocking drain of the endpoint queue until the batch fills. The
// loopback fleet and equivalence tests therefore exercise exactly the
// batched wire path the live UDP server runs.
func (c *memConn) RecvBatch(deadline time.Time, msgs []transport.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	n := 0
	for n < len(msgs) {
		if n == 0 {
			select {
			case <-c.done:
				return 0, net.ErrClosed
			case d := <-c.ch:
				if c.dec.DecodeInto(&msgs[0], d.b) != nil {
					continue // ignore stray datagrams
				}
				msgs[0].From = d.from
				n = 1
			case <-timer.C:
				return 0, os.ErrDeadlineExceeded
			}
			continue
		}
		select {
		case d := <-c.ch:
			if c.dec.DecodeInto(&msgs[n], d.b) != nil {
				continue
			}
			msgs[n].From = d.from
			n++
		default:
			return n, nil // queue drained
		}
	}
	return n, nil
}

// SendBatch implements hub.Conn by delivering each datagram in
// order; like UDP, sends to full or unknown endpoints are dropped
// (unknown destinations count as errors, as with SendTo).
func (c *memConn) SendBatch(pkts []transport.Packet) (int, error) {
	sent := 0
	var firstErr error
	for i := range pkts {
		if err := c.SendTo(pkts[i].Buf, pkts[i].To); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// LoopbackScenario configures an in-process fleet of emulated player
// sessions against one hub. Each session has a screen and a controller
// endpoint, a per-session acoustic air delay (the ISD the hub must
// measure and compensate) and a per-session clock offset (Ekho needs no
// clock synchronization, so offsets must not matter). All timing is
// content-derived — timestamps come from frame sequence numbers, not the
// wall clock — so the fleet runs as fast as the machine allows.
type LoopbackScenario struct {
	// Sessions is the number of client fleets to launch.
	Sessions int
	// ContentSeconds is the audio each admitted session streams.
	ContentSeconds float64
	// Capacity caps hub admissions (default: Sessions).
	Capacity int
	// Shards sets the hub's shard/worker count (default 8).
	Shards int
	// AirDelayFrames gives a session's screen-to-mic delay in 20 ms
	// frames (default: 4 + id%9, i.e. 80-240 ms).
	AirDelayFrames func(id uint32) int
	// ClockOffsetSec gives a session's local clock offset (default:
	// one second per session id).
	ClockOffsetSec func(id uint32) float64
	// Attenuation is the overheard path gain (default 0.1).
	Attenuation float64
	// Codec is the chat uplink profile (default codec.Lossless, which
	// keeps a 64-session fleet cheap; use codec.SWB32 for the paper's
	// uplink).
	Codec codec.Profile
	// Wire selects the fleet's wire framing (default transport.WireV2;
	// transport.WireRTP runs the same scenario over RTP packetization —
	// the server accepts both either way, sniffing per datagram).
	Wire transport.Wire
	// Compensator tunes the per-session loop (default: 3 s settling,
	// which suits accelerated runs).
	Compensator ekho.CompensatorConfig
	// RecordDir, when non-empty, records every admitted session's
	// timeline to trace logs for deterministic replay.
	RecordDir string
	// Logf receives hub progress lines (nil silences them).
	Logf Logf
}

// LoopbackReport is the outcome of a loopback fleet run.
type LoopbackReport struct {
	// Results holds one entry per session the hub admitted and ended.
	Results []SessionResult
	// Rejected lists session ids refused with TypeBusy.
	Rejected []uint32
	// Stats is the hub's final counter snapshot.
	Stats Snapshot
}

func (sc LoopbackScenario) withDefaults() LoopbackScenario {
	if sc.Capacity == 0 {
		sc.Capacity = sc.Sessions
	}
	if sc.Shards == 0 {
		sc.Shards = 8
	}
	if sc.AirDelayFrames == nil {
		sc.AirDelayFrames = func(id uint32) int { return 4 + int(id%9) }
	}
	if sc.ClockOffsetSec == nil {
		sc.ClockOffsetSec = func(id uint32) float64 { return float64(id) }
	}
	if sc.Attenuation == 0 {
		sc.Attenuation = 0.1
	}
	if sc.Codec.Name == "" {
		sc.Codec = codec.Lossless
	}
	if sc.Compensator.SettleSec == 0 {
		sc.Compensator.SettleSec = 3
	}
	return sc
}

// RunLoopback launches a hub plus an emulated client fleet on a MemNet,
// streams ContentSeconds of media to every admitted session as fast as
// the machine allows, and returns the per-session results.
func RunLoopback(sc LoopbackScenario) (*LoopbackReport, error) {
	sc = sc.withDefaults()
	mem := NewMemNet()
	serverConn := mem.Endpoint("hub")
	// The hub socket sniffs framings per datagram, exactly like the live
	// server: v2 fleets and RTP fleets run against the same decode path.
	serverConn.(*memConn).SetDecoder(rtp.NewCodec())
	serverAddr := serverConn.LocalAddr()

	var resMu sync.Mutex
	var results []SessionResult
	ready := make(chan uint32, sc.Sessions)
	h := New(Config{
		Capacity:       sc.Capacity,
		Shards:         sc.Shards,
		TickEvery:      -1, // driven below, flat out
		IdleTimeout:    -1,
		Codec:          sc.Codec,
		Compensator:    sc.Compensator,
		RecordDir:      sc.RecordDir,
		Logf:           sc.Logf,
		OnSessionReady: func(id uint32) { ready <- id },
		OnSessionEnd: func(id uint32, r SessionResult) {
			resMu.Lock()
			results = append(results, r)
			resMu.Unlock()
		},
	}, serverConn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()

	rejCh := make(chan uint32, 2*sc.Sessions)
	var clientWG sync.WaitGroup
	clients := make([]*loopbackClient, 0, sc.Sessions)
	for i := 0; i < sc.Sessions; i++ {
		id := uint32(i + 1)
		c := &loopbackClient{
			id:          id,
			server:      serverAddr,
			screen:      mem.Endpoint(fmt.Sprintf("screen-%d", id)),
			ctrl:        mem.Endpoint(fmt.Sprintf("ctrl-%d", id)),
			delayFrames: sc.AirDelayFrames(id),
			offset:      sc.ClockOffsetSec(id),
			atten:       sc.Attenuation,
			enc:         codec.NewEncoder(sc.Codec),
			wenc:        wireEncoder(sc.Wire),
		}
		if sc.Wire == transport.WireRTP {
			// The hub replies in the session's helloed framing, so RTP
			// fleets need RTP-decoding endpoints (one stateful codec per
			// receive loop).
			c.screen.(*memConn).SetDecoder(rtp.NewCodec())
			c.ctrl.(*memConn).SetDecoder(rtp.NewCodec())
		}
		clients = append(clients, c)
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			c.run(rejCh)
		}()
	}

	stopAll := func() {
		h.Close()
		for _, c := range clients {
			c.screen.Close()
			c.ctrl.Close()
		}
		clientWG.Wait()
	}

	// Every session must either come up or be rejected before streaming
	// starts, so each admitted session gets the full content length.
	var rejected []uint32
	for seen := 0; seen < sc.Sessions; {
		select {
		case <-ready:
			seen++
		case id := <-rejCh:
			rejected = append(rejected, id)
			seen++
		case err := <-serveErr:
			stopAll()
			return nil, fmt.Errorf("hub exited during session setup: %w", err)
		case <-time.After(30 * time.Second):
			stopAll()
			return nil, errors.New("hub loopback: sessions failed to start")
		}
	}

	// Drive content in lockstep: after each tick, wait for the chat
	// echoes of that frame (one per admitted session) to reach the hub.
	// Without pacing the whole clip would be emitted before the first
	// compensation could influence playback, and the flood would
	// overflow the loopback buffers.
	admitted := h.Stats().Admitted
	base := h.Stats().PacketsIn
	for i := int64(1); i <= int64(sc.ContentSeconds/frameSec); i++ {
		h.Tick()
		want := base + admitted*i
		lag := time.Now().Add(100 * time.Millisecond)
		for h.Stats().PacketsIn < want && time.Now().Before(lag) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Quiesce: chats are in flight behind the last media frames; wait
	// until the hub's inbound count stops moving.
	last := int64(-1)
	for i := 0; i < 250; i++ {
		cur := h.Stats().PacketsIn
		if cur == last {
			break
		}
		last = cur
		time.Sleep(20 * time.Millisecond)
	}
	stats := h.Stats()
	stopAll()
	if err := <-serveErr; err != nil {
		return nil, err
	}
	// Late rejections (none expected after setup, but drain the channel).
	for {
		select {
		case id := <-rejCh:
			rejected = append(rejected, id)
			continue
		default:
		}
		break
	}
	return &LoopbackReport{Results: results, Rejected: rejected, Stats: stats}, nil
}

// loopbackClient emulates one player: a controller endpoint that logs
// accessory playback records and a screen endpoint whose playback is
// overheard by the headset mic after a fixed air delay, encoded and
// shipped back as chat. Timestamps are derived from sequence numbers on
// a per-session offset clock.
type loopbackClient struct {
	id          uint32
	server      net.Addr
	screen      Conn
	ctrl        Conn
	delayFrames int
	offset      float64
	atten       float64
	enc         *codec.Encoder
	// wenc frames every packet this client sends (v2 or RTP).
	wenc transport.WireEncoder

	mu       sync.Mutex
	pending  []transport.PlaybackRecord
	rejected atomic.Bool

	// screenLoop scratch (single goroutine): MemNet.SendTo copies the
	// datagram, so the chat buffer is reusable across sends.
	mic  []float64
	enc2 []byte
	chat []byte
}

func (c *loopbackClient) run(rejCh chan<- uint32) {
	_ = c.screen.SendTo(c.wenc.AppendHello(nil, transport.Hello{Session: c.id, Role: transport.RoleScreen}), c.server)
	_ = c.ctrl.SendTo(c.wenc.AppendHello(nil, transport.Hello{Session: c.id, Role: transport.RoleController}), c.server)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.ctrlLoop(rejCh)
	}()
	c.screenLoop(rejCh)
	wg.Wait()
}

func (c *loopbackClient) reject(rejCh chan<- uint32) {
	if c.rejected.CompareAndSwap(false, true) {
		rejCh <- c.id
	}
}

// ctrlLoop plays the accessory stream: every content-bearing frame
// yields a playback record on the session's local clock.
func (c *loopbackClient) ctrlLoop(rejCh chan<- uint32) {
	for {
		msg, err := c.ctrl.Recv(time.Now().Add(time.Minute))
		if err != nil {
			return
		}
		switch msg.Type {
		case transport.TypeBusy:
			c.reject(rejCh)
		case transport.TypeMedia:
			md := msg.Media
			if md.ContentStart < 0 {
				continue
			}
			at := c.offset + float64(md.Seq)*frameSec + float64(md.ContentOff)/ekho.SampleRate
			c.mu.Lock()
			c.pending = append(c.pending, transport.PlaybackRecord{
				ContentStart: md.ContentStart,
				LocalMicros:  int64(at * 1e6),
				N:            uint16(len(md.Samples)) - md.ContentOff,
			})
			c.mu.Unlock()
		}
	}
}

// screenLoop overhears the screen playback: each screen frame reaches
// the mic delayFrames later, is attenuated, encoded and sent back as
// chat with the pending playback records piggybacked.
func (c *loopbackClient) screenLoop(rejCh chan<- uint32) {
	for {
		msg, err := c.screen.Recv(time.Now().Add(time.Minute))
		if err != nil {
			return
		}
		switch msg.Type {
		case transport.TypeBusy:
			c.reject(rejCh)
		case transport.TypeMedia:
			md := msg.Media
			if cap(c.mic) < len(md.Samples) {
				c.mic = make([]float64, len(md.Samples))
			}
			buf := c.mic[:len(md.Samples)]
			for i, v := range md.Samples {
				buf[i] = audio.Int16ToFloat(v) * c.atten
			}
			pkt, err := c.enc.EncodeTo(c.enc2[:0], buf)
			if err != nil {
				continue
			}
			c.enc2 = pkt
			adc := int64((c.offset + (float64(md.Seq)+float64(c.delayFrames))*frameSec) * 1e6)
			c.mu.Lock()
			recs := c.pending
			c.pending = nil
			c.mu.Unlock()
			b, err := c.wenc.AppendChat(c.chat[:0], transport.Chat{
				Seq: md.Seq, Session: c.id, ADCMicros: adc, Records: recs, Encoded: pkt})
			if err != nil {
				continue
			}
			c.chat = b
			_ = c.screen.SendTo(b, c.server)
		}
	}
}
