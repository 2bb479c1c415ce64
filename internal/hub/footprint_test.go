package hub

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// fixedFootprintBound is what a serving hub with no session may keep on
// the heap: its stripes, the receive batch, the tick scratch and its
// metrics. Per-session memory is budgeted separately
// (serverpipe.TestSessionFootprint).
const fixedFootprintBound = 256 << 10

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
	t.Logf("idle hub retains %.1f KB of heap (bound %d KB, %d stripes)",
		float64(retained)/1024, fixedFootprintBound>>10, len(h.stripes))
	if retained > fixedFootprintBound {
		t.Errorf("idle hub retains %d B of heap, want <= %d B", retained, fixedFootprintBound)
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
