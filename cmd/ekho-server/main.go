// Command ekho-server is the live multi-tenant Ekho server: it hosts up
// to -capacity concurrent sessions on one UDP socket, each streaming a
// marked screen stream and an accessory stream to its own ekho-screen and
// ekho-client pair, estimating the inter-stream delay from the returned
// chat audio and compensating it per session.
//
// Run a single-session demo on one machine:
//
//	ekho-server -listen 127.0.0.1:9000
//	ekho-client -server 127.0.0.1:9000 -air-listen 127.0.0.1:9100
//	ekho-screen -server 127.0.0.1:9000 -air 127.0.0.1:9100 -extra-delay 180ms
//
// Additional player sessions join the same server by picking a session
// id: start more screen/client pairs with a shared -session N. A session
// past -capacity is politely refused with a busy packet. The screen's
// -extra-delay emulates a slow network + TV pipeline; watch the server
// measure the startup gap (~240 ms), insert 12 frames, and hold the
// streams within a frame thereafter — while the client stamps everything
// with a deliberately offset clock, proving no clock synchronization is
// needed.
//
// Wire framing: the server accepts the native v2 framing and RFC 3550
// RTP packetization side by side, sniffing per datagram, and replies to
// each session in whatever framing its hello used. -wire restricts
// accepted framings (auto, v2 or rtp); clients pick theirs with the
// matching -wire flag on ekho-screen/ekho-client.
//
// Observability: -pprof ADDR serves an admin mux with
//
//	/metrics      Prometheus text exposition of every hub counter
//	/sessions     per-session JSON snapshots (wire, ISD, markers, ...)
//	/debug/pprof  the usual net/http/pprof handlers
//
// making scraping the primary way to watch a hub. Signals: SIGHUP prints
// the same numbers as a stats snapshot plus one stable line per live
// session ("session <id> frames=... measurements=... actions=...
// pending=... records=..."), SIGINT/SIGTERM drain the hub (existing
// sessions finish, new ones are refused) and shut down after a short
// grace period. The final snapshot is printed on exit.
//
// With -record DIR every session's full pipeline timeline is captured to
// DIR/session-<id>.ektrace for deterministic replay by ekho-replay.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ekho"
	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9000", "UDP address to listen on")
	capacity := flag.Int("capacity", 64, "maximum concurrent sessions")
	duration := flag.Duration("duration", 0, "stop after this long (0 = run until signalled)")
	idle := flag.Duration("idle-timeout", 30*time.Second, "evict sessions with no traffic for this long")
	grace := flag.Duration("grace", 5*time.Second, "drain grace period on SIGINT/SIGTERM")
	markerC := flag.Float64("c", ekho.DefaultMarkerVolume, "marker relative volume C")
	clip := flag.Int("clip", 0, "corpus clip index (0-29)")
	record := flag.String("record", "", "capture each session to <dir>/session-<id>.ektrace for ekho-replay (empty = off)")
	pprofAddr := flag.String("pprof", "", "serve the admin mux (/metrics, /sessions, /debug/pprof) on this address (e.g. 127.0.0.1:6060; empty = off)")
	wire := flag.String("wire", "auto", "accepted wire framings: auto (sniff v2+rtp per datagram), v2 or rtp")
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if *capacity < 1 {
		fmt.Fprintln(os.Stderr, "ekho-server: -capacity must be at least 1")
		os.Exit(2)
	}

	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ekho-server:", err)
			os.Exit(1)
		}
	}

	conn, err := transport.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ekho-server:", err)
		os.Exit(1)
	}
	switch *wire {
	case "auto":
		conn.SetDecoder(rtp.NewCodec())
	case "v2", "rtp":
		w, _ := transport.ParseWire(*wire)
		conn.SetDecoder(rtp.NewCodecFor(w))
	default:
		fmt.Fprintf(os.Stderr, "ekho-server: unknown -wire %q (want auto, v2 or rtp)\n", *wire)
		os.Exit(2)
	}

	h := hub.New(hub.Config{
		Capacity:    *capacity,
		IdleTimeout: *idle,
		MarkerC:     *markerC,
		Clip:        *clip,
		RecordDir:   *record,
		Logf:        log.Printf,
		OnSessionEnd: func(id uint32, r hub.SessionResult) {
			log.Printf("session %d ended: %d frames, %d measurements, %d actions",
				id, r.Frames, r.Measurements, r.Actions)
		},
	}, conn)

	if *pprofAddr != "" {
		// DefaultServeMux carries the net/http/pprof handlers; the hub adds
		// /metrics (Prometheus text) and /sessions (JSON) beside them.
		h.RegisterAdmin(http.DefaultServeMux)
		go func() {
			log.Printf("admin listening on http://%s/ (/metrics, /sessions, /debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("admin server: %v", err)
			}
		}()
	}

	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		var timeout <-chan time.Time
		if *duration > 0 {
			timeout = time.After(*duration)
		}
		for {
			select {
			case sig := <-sigs:
				if sig == syscall.SIGHUP {
					log.Printf("stats: %s", h.Stats())
					for _, st := range h.SessionStats() {
						log.Printf("%s", st)
					}
					continue
				}
				log.Printf("%s: draining (grace %s)", sig, *grace)
				h.Shutdown(*grace)
				return
			case <-timeout:
				log.Printf("duration elapsed: draining (grace %s)", *grace)
				h.Shutdown(*grace)
				return
			case <-stop:
				return
			}
		}
	}()

	err = h.Serve()
	close(stop)
	log.Printf("final stats: %s", h.Stats())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ekho-server:", err)
		os.Exit(1)
	}
}
