package live

import (
	"math"
	"sync"
	"testing"
	"time"

	"ekho/internal/hub"
	"ekho/internal/rtp"
	"ekho/internal/transport"
)

// TestLiveLoopbackSynchronizes runs all three roles over real UDP loopback
// sockets for several wall-clock seconds: the server must measure the
// screen's extra delay and converge after compensating. This is the
// integration test behind the cmd/ demo binaries.
func TestLiveLoopbackSynchronizes(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback test needs ~12 s of wall time")
	}
	const runFor = 10 * time.Second

	// The server is a capacity-1 hub on a socket that accepts both wire
	// framings, as cmd/ekho-server runs it.
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDecoder(rtp.NewCodec())
	serverAddr := conn.LocalAddr().String()
	airReady := make(chan string, 1)
	sessionReady := make(chan uint32, 1)
	results := make(chan hub.SessionResult, 1)
	h := hub.New(hub.Config{
		Capacity: 1,
		OnSessionReady: func(id uint32) {
			select {
			case sessionReady <- id:
			default:
			}
		},
		OnSessionEnd: func(id uint32, r hub.SessionResult) {
			select {
			case results <- r:
			default:
			}
		},
	}, conn)

	var (
		wg        sync.WaitGroup
		serverErr error
		clientErr error
		screenErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverErr = h.Serve()
	}()
	// The streaming clock starts once both endpoints have joined.
	go func() {
		select {
		case <-sessionReady:
			time.Sleep(runFor)
		case <-time.After(time.Minute):
		}
		h.Close()
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, clientErr = RunClient(ClientConfig{
			Server:      serverAddr,
			AirListen:   "127.0.0.1:0",
			ClockOffset: 3200 * time.Millisecond,
			Duration:    runFor + 2*time.Second,
			AirReady:    airReady,
		})
	}()
	airAddr := <-airReady

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, screenErr = RunScreen(ScreenConfig{
			Server:     serverAddr,
			Air:        airAddr,
			ExtraDelay: 180 * time.Millisecond,
			Duration:   runFor + 2*time.Second,
		})
	}()

	wg.Wait()
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	if clientErr != nil {
		t.Fatalf("client: %v", clientErr)
	}
	if screenErr != nil {
		t.Fatalf("screen: %v", screenErr)
	}

	var serverStats hub.SessionResult
	select {
	case serverStats = <-results:
	default:
		t.Fatal("no session ended")
	}
	if serverStats.Measurements < 5 {
		t.Fatalf("only %d measurements in %s", serverStats.Measurements, runFor)
	}
	if serverStats.Actions < 1 {
		t.Fatal("no compensation action")
	}
	// The startup gap is dominated by the 180 ms extra delay plus jitter
	// buffers; the first correction must be in that ballpark.
	if serverStats.FirstActionFrames < 8 || serverStats.FirstActionFrames > 18 {
		t.Fatalf("first correction %d frames, want ~12 for a ~240 ms gap", serverStats.FirstActionFrames)
	}
	// After the correction the residual must sit inside one frame.
	var tail []float64
	for i, isd := range serverStats.ISDs {
		if i >= len(serverStats.ISDs)/2 {
			tail = append(tail, math.Abs(isd))
		}
	}
	if len(tail) == 0 {
		t.Fatal("no post-correction measurements")
	}
	within := 0
	for _, v := range tail {
		if v <= 0.025 {
			within++
		}
	}
	if frac := float64(within) / float64(len(tail)); frac < 0.7 {
		t.Fatalf("only %.0f%% of late measurements within 25 ms: %v", frac*100, tail)
	}
}
