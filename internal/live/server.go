// Package live implements the real-UDP Ekho deployment used by the demo
// binaries (cmd/ekho-server, cmd/ekho-screen, cmd/ekho-client) and by the
// loopback integration test: the same server/screen/controller roles as
// the virtual-time simulator, but running in wall-clock time over
// net.PacketConn sockets with the transport wire protocol.
//
// The server role is a thin wrapper over internal/hub: RunServer hosts a
// capacity-1 hub, so the single-session demo and the multi-tenant
// cmd/ekho-server share one session pipeline implementation.
package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// Logf is a printf-style sink for role progress output.
type Logf func(format string, args ...any)

func nopLog(string, ...any) {}

// ServerConfig configures the live Ekho server role.
type ServerConfig struct {
	// Listen is the UDP address to bind (e.g. "127.0.0.1:9000").
	Listen string
	// Duration bounds the streaming phase (after both endpoints joined).
	Duration time.Duration
	// MarkerC is the relative marker volume (0 = paper default).
	MarkerC float64
	// Clip selects the corpus clip to loop.
	Clip int
	// Logf receives progress lines (nil silences them).
	Logf Logf
	// Ready, if non-nil, is closed once the socket is bound (tests use it
	// to sequence startup).
	Ready chan<- net.Addr
}

// ServerStats summarizes a server run.
type ServerStats struct {
	Measurements int
	Actions      int
	// ISDs holds every measured ISD in seconds, in order.
	ISDs []float64
	// FirstActionFrames is the insert size of the first compensation,
	// rounded to whole frames.
	FirstActionFrames int
}

// RunServer executes the server role: a capacity-1 hub that streams for
// Duration once both endpoints have joined.
func RunServer(cfg ServerConfig) (ServerStats, error) {
	var stats ServerStats
	logf := cfg.Logf
	if logf == nil {
		logf = nopLog
	}
	conn, err := transport.Listen(cfg.Listen)
	if err != nil {
		return stats, err
	}
	// Accept both wire framings; each session replies in whatever framing
	// its Hello arrived in, so the demo server is wire-agnostic.
	conn.SetDecoder(rtp.NewCodec())
	if cfg.Ready != nil {
		cfg.Ready <- conn.LocalAddr()
	}
	logf("listening on %s; waiting for screen and controller hellos", conn.LocalAddr())

	var (
		statsMu  sync.Mutex
		haveStat bool
		ready    = make(chan struct{})
		onceRdy  sync.Once
	)
	h := hub.New(hub.Config{
		Capacity: 1,
		MarkerC:  cfg.MarkerC,
		Clip:     cfg.Clip,
		Logf:     hub.Logf(logf),
		OnSessionReady: func(id uint32) {
			onceRdy.Do(func() { close(ready) })
		},
		OnSessionEnd: func(id uint32, r hub.SessionResult) {
			statsMu.Lock()
			defer statsMu.Unlock()
			if haveStat {
				return
			}
			haveStat = true
			stats = ServerStats{
				Measurements:      r.Measurements,
				Actions:           r.Actions,
				ISDs:              r.ISDs,
				FirstActionFrames: r.FirstActionFrames,
			}
		},
	}, conn)

	// The duration clock starts when both endpoints have joined; a run
	// where no session comes up within a minute is aborted.
	var timedOut atomic.Bool
	stop := make(chan struct{})
	go func() {
		select {
		case <-ready:
			logf("both endpoints joined; streaming for %s", cfg.Duration)
			select {
			case <-time.After(cfg.Duration):
				h.Close()
			case <-stop:
			}
		case <-time.After(time.Minute):
			timedOut.Store(true)
			h.Close()
		case <-stop:
		}
	}()

	err = h.Serve()
	close(stop)
	if timedOut.Load() {
		return stats, fmt.Errorf("live: waiting for endpoints: no session within 1 minute")
	}
	if err != nil {
		return stats, err
	}
	logf("done: %d measurements, %d compensation actions", stats.Measurements, stats.Actions)
	return stats, nil
}
