// Package live implements the real-UDP device roles used by the demo
// binaries (cmd/ekho-screen, cmd/ekho-client): the same screen and
// controller roles as the virtual-time simulator, but running in
// wall-clock time over net.PacketConn sockets with the transport wire
// protocol, against an internal/hub server such as cmd/ekho-server.
package live

import (
	"container/list"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/jitterbuf"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// Logf is a printf-style sink for role progress output.
type Logf func(format string, args ...any)

func nopLog(string, ...any) {}

// wireEnc maps a device's configured wire framing onto its stateless
// encoder. The air hop between screen and headset always stays on v2
// framing — it emulates sound through a room, not a production link.
func wireEnc(w transport.Wire) transport.WireEncoder {
	if w == transport.WireRTP {
		return rtp.Encoder{}
	}
	return transport.V2{}
}

// cleanRecvErr reports whether a socket error marks an expected end of a
// run (our own close, or a read deadline expiring after the stream went
// quiet) rather than a failure that must surface to the caller.
func cleanRecvErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// busyErr converts a TypeBusy reject into the error returned to callers.
func busyErr(b transport.Busy) error {
	return fmt.Errorf("live: server busy: %d/%d sessions active", b.Active, b.Capacity)
}

// playout is a device's jitter buffer over media frames: the buffer
// orders sequence numbers and metaBySeq holds each buffered frame until it
// plays. A frame the buffer refuses (late, duplicate or overflowing) is
// never stored, so nothing outlives its frame.
type playout struct {
	buf       *jitterbuf.Buffer
	metaBySeq map[int]transport.Media
}

func newPlayout(thresholdFrames int) *playout {
	return &playout{buf: jitterbuf.New(thresholdFrames), metaBySeq: map[int]transport.Media{}}
}

// push offers an arriving frame to the jitter buffer.
func (p *playout) push(m transport.Media) {
	if p.buf.Push(jitterbuf.Frame{Seq: int(m.Seq)}) {
		p.metaBySeq[int(m.Seq)] = m
	}
}

// pop runs one playout tick and returns the frame that plays, or false
// while the buffer is (re)filling.
func (p *playout) pop() (transport.Media, bool) {
	if _, ev := p.buf.Pop(); ev == jitterbuf.Waiting {
		return transport.Media{}, false
	}
	seq := p.buf.NextSeq() - 1
	m, ok := p.metaBySeq[seq]
	delete(p.metaBySeq, seq)
	return m, ok
}

// ScreenConfig configures the live screen-device role: playback is
// emulated by forwarding played frames over UDP to the client's "air"
// port after a configurable extra delay.
type ScreenConfig struct {
	Server string
	// Session is the wire session identifier to join.
	Session      uint32
	Air          string
	ExtraDelay   time.Duration
	JitterFrames int
	Duration     time.Duration
	// Wire selects the framing spoken with the server (default v2; the
	// air forwarding hop is always v2).
	Wire transport.Wire
	Logf Logf
}

// ScreenStats summarizes a screen run.
type ScreenStats struct {
	Played, Forwarded int
}

type delayed struct {
	at    time.Time
	media transport.Media
}

// RunScreen executes the screen role. It returns an error if the server
// rejects the session as busy or the sockets fail mid-run; running out
// the configured duration is a clean exit (announced to the server with
// a Bye).
func RunScreen(cfg ScreenConfig) (ScreenStats, error) {
	var stats ScreenStats
	logf := cfg.Logf
	if logf == nil {
		logf = nopLog
	}
	if cfg.JitterFrames == 0 {
		cfg.JitterFrames = 4
	}
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return stats, err
	}
	defer conn.Close()
	conn.SetDecoder(rtp.NewCodec()) // server replies in the helloed framing
	wenc := wireEnc(cfg.Wire)
	serverAddr, err := transport.ResolveUDP(cfg.Server)
	if err != nil {
		return stats, err
	}
	airAddr, err := transport.ResolveUDP(cfg.Air)
	if err != nil {
		return stats, err
	}
	hello := transport.Hello{Session: cfg.Session, Role: transport.RoleScreen}
	if err := conn.SendTo(wenc.AppendHello(nil, hello), serverAddr); err != nil {
		return stats, fmt.Errorf("live: hello: %w", err)
	}
	logf("screen up; media from %s (session %d), playing into %s with +%s lag",
		cfg.Server, cfg.Session, cfg.Air, cfg.ExtraDelay)

	play := newPlayout(cfg.JitterFrames)
	queue := list.New()

	media := make(chan transport.Media, 64)
	errCh := make(chan error, 1)
	go func() {
		defer close(media)
		for {
			msg, err := conn.Recv(time.Now().Add(cfg.Duration + 5*time.Second))
			if err != nil {
				if !cleanRecvErr(err) {
					errCh <- fmt.Errorf("live: screen receive: %w", err)
				}
				return
			}
			switch {
			case msg.Type == transport.TypeBusy:
				errCh <- busyErr(msg.Busy)
				return
			case msg.Type == transport.TypeMedia && msg.Session == cfg.Session:
				select {
				case media <- msg.Media:
				default: // main loop lagging: drop like a real NIC queue
				}
			}
		}
	}()

	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(cfg.Duration)
	for time.Now().Before(deadline) {
		select {
		case err := <-errCh:
			return stats, err
		case m, ok := <-media:
			if !ok {
				return stats, nil
			}
			play.push(m)
		case now := <-tick.C:
			// A starved buffer still emits silence — the speaker's DAC
			// keeps running, so the overheard waveform clock never
			// stalls (Ekho's chat timeline depends on that).
			out, ok := play.pop()
			if ok {
				stats.Played++
			} else {
				out = transport.Media{ContentStart: -1, Samples: make([]int16, audio.FrameSamples)}
			}
			queue.PushBack(delayed{at: now.Add(cfg.ExtraDelay), media: out})
			for e := queue.Front(); e != nil; {
				d := e.Value.(delayed)
				if now.Before(d.at) {
					break
				}
				next := e.Next()
				queue.Remove(e)
				e = next
				b, err := transport.AppendMedia(nil, d.media)
				if err != nil {
					return stats, fmt.Errorf("live: encode air frame: %w", err)
				}
				if err := conn.SendTo(b, airAddr); err != nil {
					return stats, fmt.Errorf("live: forward to air: %w", err)
				}
				stats.Forwarded++
			}
		}
	}
	if err := conn.SendTo(wenc.AppendBye(nil, transport.Bye{Session: cfg.Session}), serverAddr); err != nil {
		return stats, fmt.Errorf("live: bye: %w", err)
	}
	logf("done: played %d frames, forwarded %d to the air", stats.Played, stats.Forwarded)
	return stats, nil
}

// ClientConfig configures the live controller/headset role.
type ClientConfig struct {
	Server string
	// Session is the wire session identifier to join.
	Session      uint32
	AirListen    string
	ClockOffset  time.Duration
	Attenuation  float64
	JitterFrames int
	Duration     time.Duration
	// Wire selects the framing spoken with the server (default v2).
	Wire transport.Wire
	Logf Logf
	// AirReady, if non-nil, receives the bound air address.
	AirReady chan<- string
}

// ClientStats summarizes a client run.
type ClientStats struct {
	ChatPackets int
}

// mic emulates a sound card capturing the overheard screen playback: air
// frames are laid out contiguously on a timeline anchored at the first
// frame's arrival, and the reader consumes the oldest 20 ms whenever at
// least that much is buffered (see cmd/ekho-client's history for why
// free-running either side fragments or starves the waveform).
type mic struct {
	mu       sync.Mutex
	buf      []float64
	consumed int
	anchor   time.Time
	anchored bool
}

func (m *mic) write(at time.Time, samples []int16, gain float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.anchored {
		m.anchor = at
		m.anchored = true
	}
	for _, v := range samples {
		m.buf = append(m.buf, audio.Int16ToFloat(v)*gain)
	}
	const maxBacklog = 4 * audio.SampleRate / 10
	if len(m.buf) > maxBacklog {
		drop := len(m.buf) - maxBacklog/2
		m.buf = m.buf[drop:]
		m.consumed += drop
	}
}

func (m *mic) capture(n int) ([]float64, time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.anchored || len(m.buf) < n {
		return nil, time.Time{}, false
	}
	out := make([]float64, n)
	copy(out, m.buf[:n])
	m.buf = m.buf[n:]
	ts := m.anchor.Add(time.Duration(m.consumed) * time.Second / audio.SampleRate)
	m.consumed += n
	return out, ts, true
}

// RunClient executes the controller/headset role. Like RunScreen it
// surfaces busy rejects and socket failures as errors and sends a Bye on
// clean exit.
func RunClient(cfg ClientConfig) (ClientStats, error) {
	var stats ClientStats
	logf := cfg.Logf
	if logf == nil {
		logf = nopLog
	}
	if cfg.Attenuation == 0 {
		cfg.Attenuation = 0.1
	}
	if cfg.JitterFrames == 0 {
		cfg.JitterFrames = 2
	}
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return stats, err
	}
	defer conn.Close()
	conn.SetDecoder(rtp.NewCodec()) // server replies in the helloed framing
	wenc := wireEnc(cfg.Wire)
	airConn, err := transport.Listen(cfg.AirListen)
	if err != nil {
		return stats, err
	}
	defer airConn.Close()
	if cfg.AirReady != nil {
		cfg.AirReady <- airConn.LocalAddr().String()
	}
	serverAddr, err := transport.ResolveUDP(cfg.Server)
	if err != nil {
		return stats, err
	}
	hello := transport.Hello{Session: cfg.Session, Role: transport.RoleController}
	if err := conn.SendTo(wenc.AppendHello(nil, hello), serverAddr); err != nil {
		return stats, fmt.Errorf("live: hello: %w", err)
	}
	logf("controller up (session %d); air on %s, clock offset %s",
		cfg.Session, airConn.LocalAddr(), cfg.ClockOffset)

	localMicros := func(t time.Time) int64 { return t.Add(cfg.ClockOffset).UnixMicro() }

	m := &mic{}
	play := newPlayout(cfg.JitterFrames)
	var mu sync.Mutex
	var pendingRecords []transport.PlaybackRecord

	media := make(chan transport.Media, 64)
	errCh := make(chan error, 2)
	go func() {
		defer close(media)
		for {
			msg, err := conn.Recv(time.Now().Add(cfg.Duration + 5*time.Second))
			if err != nil {
				if !cleanRecvErr(err) {
					errCh <- fmt.Errorf("live: controller receive: %w", err)
				}
				return
			}
			switch {
			case msg.Type == transport.TypeBusy:
				errCh <- busyErr(msg.Busy)
				return
			case msg.Type == transport.TypeMedia && msg.Session == cfg.Session:
				select {
				case media <- msg.Media:
				default:
				}
			}
		}
	}()
	go func() {
		for {
			msg, err := airConn.Recv(time.Now().Add(cfg.Duration + 5*time.Second))
			if err != nil {
				if !cleanRecvErr(err) {
					errCh <- fmt.Errorf("live: air receive: %w", err)
				}
				return
			}
			if msg.Type == transport.TypeMedia {
				m.write(time.Now(), msg.Media.Samples, cfg.Attenuation)
			}
		}
	}()

	enc := codec.NewEncoder(codec.SWB32)
	chatSeq := uint32(0)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(cfg.Duration)
	for now := range tick.C {
		if now.After(deadline) {
			break
		}
		select {
		case err := <-errCh:
			return stats, err
		default:
		}
	drain:
		for {
			select {
			case md, ok := <-media:
				if !ok {
					break drain
				}
				play.push(md)
			default:
				break drain
			}
		}
		if md, ok := play.pop(); ok && md.ContentStart >= 0 {
			mu.Lock()
			pendingRecords = append(pendingRecords, transport.PlaybackRecord{
				ContentStart: md.ContentStart,
				LocalMicros:  localMicros(now),
				N:            uint16(len(md.Samples)) - md.ContentOff,
			})
			mu.Unlock()
		}
		for burst := 0; burst < 2; burst++ {
			captured, capturedAt, ok := m.capture(audio.FrameSamples)
			if !ok {
				break
			}
			pkt, err := enc.Encode(captured)
			if err != nil {
				break
			}
			adc := localMicros(capturedAt)
			mu.Lock()
			recs := pendingRecords
			pendingRecords = nil
			mu.Unlock()
			chat := transport.Chat{
				Seq: chatSeq, Session: cfg.Session, ADCMicros: adc, Records: recs, Encoded: pkt}
			b, err := wenc.AppendChat(nil, chat)
			if err != nil {
				return stats, fmt.Errorf("live: encode chat: %w", err)
			}
			chatSeq++
			if err := conn.SendTo(b, serverAddr); err != nil {
				return stats, fmt.Errorf("live: send chat: %w", err)
			}
		}
	}
	if err := conn.SendTo(wenc.AppendBye(nil, transport.Bye{Session: cfg.Session}), serverAddr); err != nil {
		return stats, fmt.Errorf("live: bye: %w", err)
	}
	stats.ChatPackets = int(chatSeq)
	logf("done: sent %d chat packets", chatSeq)
	return stats, nil
}
