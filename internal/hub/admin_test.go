package hub

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ekho/internal/transport"
)

// TestAdminEndpoints drives a hub and scrapes its observability plane:
// /metrics must expose live registry counters in Prometheus text format
// and /sessions must serve per-session JSON snapshots.
func TestAdminEndpoints(t *testing.T) {
	mem := NewMemNet()
	conn := mem.Endpoint("hub")
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: 4}, conn)
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	from := mem.Endpoint("client").LocalAddr()
	h.Dispatch(transport.Message{
		Type: transport.TypeHello, Session: 7,
		Hello: transport.Hello{Session: 7, Role: transport.RoleScreen},
		Wire:  transport.WireRTP, From: from,
	})
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Admitted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("session never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	mux := http.NewServeMux()
	h.RegisterAdmin(mux)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, line := range []string{
		"# TYPE ekho_sessions_active gauge",
		"ekho_sessions_active 1",
		"ekho_sessions_admitted_total 1",
		"ekho_tick_overrun_total 0",
		"ekho_dispatch_p99_ms",
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q in:\n%s", line, body)
		}
	}
	// The memory gauges read the live heap, so with a session admitted both
	// are positive.
	for _, name := range []string{"ekho_heap_bytes", "ekho_heap_bytes_per_session"} {
		if v, found := metricValue(body, name); !found || v <= 0 {
			t.Fatalf("/metrics %s = %v (served: %v), want > 0", name, v, found)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/sessions status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/sessions content type %q", ct)
	}
	var infos []SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("/sessions JSON: %v\n%s", err, rec.Body.String())
	}
	if len(infos) != 1 || infos[0].ID != 7 || infos[0].Wire != "rtp" {
		t.Fatalf("/sessions = %+v, want one session 7 on rtp wire", infos)
	}
}

// metricValue returns the value of the unlabelled sample name in a
// Prometheus text exposition.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestAdminMetricsUnderLoad scrapes /metrics over HTTP while a serving hub
// routes a continuous stream of data packets for four sessions: every
// scrape must answer 200 within a second, and the inbound packet counter
// must rise between scrapes taken during the load.
func TestAdminMetricsUnderLoad(t *testing.T) {
	mem := NewMemNet()
	h := New(Config{TickEvery: -1, IdleTimeout: -1, Capacity: 4}, mem.Endpoint("hub"))
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer h.Close()

	from := mem.Endpoint("client").LocalAddr()
	const sessions = 4
	for id := uint32(1); id <= sessions; id++ {
		h.Dispatch(transport.Message{
			Type: transport.TypeHello, Session: id,
			Hello: transport.Hello{Session: id, Role: transport.RoleScreen},
			From:  from,
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Admitted < sessions {
		if time.Now().After(deadline) {
			t.Fatalf("admitted %d of %d sessions", h.Stats().Admitted, sessions)
		}
		time.Sleep(time.Millisecond)
	}

	msgs := make([]transport.Message, 8*sessions)
	for i := range msgs {
		id := uint32(i%sessions) + 1
		if err := transport.DecodeInto(&msgs[i], mediaDatagram(t, id, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.DispatchBatch(msgs)
			}
		}
	}()

	mux := http.NewServeMux()
	h.RegisterAdmin(mux)
	srv := httptest.NewServer(mux)
	client := &http.Client{Timeout: time.Second}
	scrape := func() (float64, error) {
		start := time.Now()
		resp, err := client.Get(srv.URL + "/metrics")
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if took := time.Since(start); resp.StatusCode != http.StatusOK || took > time.Second {
			return 0, fmt.Errorf("status %d after %v", resp.StatusCode, took)
		}
		if v, ok := metricValue(string(body), "ekho_packets_in_total"); ok {
			return v, nil
		}
		return 0, fmt.Errorf("no ekho_packets_in_total in:\n%s", body)
	}

	first, err := scrape()
	last := first
	for i := 0; i < 20 && err == nil; i++ {
		time.Sleep(10 * time.Millisecond)
		last, err = scrape()
	}
	close(stop)
	pump.Wait()
	srv.Close()
	h.Close()
	if err != nil {
		t.Fatalf("/metrics under load: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if last <= first {
		t.Fatalf("ekho_packets_in_total did not rise under load: %v then %v", first, last)
	}
}
