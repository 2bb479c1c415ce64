package transport

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRecvBatchControlFrom checks the source address RecvBatch reports for
// Hello and Bye, over IPv4 and IPv6 loopback, on both read paths: the
// drain alone (a poll, deadline already passed) and the blocking first
// read. Data packets must still arrive without one.
func TestRecvBatchControlFrom(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "[::1]:0"} {
		t.Run(addr, func(t *testing.T) {
			server, err := Listen(addr)
			if err != nil {
				if strings.HasPrefix(addr, "[") {
					t.Skipf("no IPv6 loopback: %v", err)
				}
				t.Fatal(err)
			}
			defer server.Close()
			client, err := Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			want := client.LocalAddr().String()

			send := func() {
				for _, b := range [][]byte{
					AppendHello(nil, Hello{Session: 7, Role: RoleController}),
					mediaPacket(t, 7, 1, 48),
					AppendBye(nil, Bye{Session: 7}),
				} {
					if err := client.SendTo(b, server.LocalAddr()); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(path string, msgs []Message) {
				t.Helper()
				if len(msgs) != 3 {
					t.Fatalf("%s: received %d datagrams, want 3", path, len(msgs))
				}
				for _, m := range msgs {
					switch m.Type {
					case TypeHello, TypeBye:
						if m.From == nil || m.From.String() != want {
							t.Errorf("%s: %v From = %v, want %s", path, m.Type, m.From, want)
						}
					default:
						if m.From != nil {
							t.Errorf("%s: data packet carries From %v", path, m.From)
						}
					}
				}
			}
			msgs := make([]Message, 8)

			// An empty socket polls to nothing, without error.
			if n, err := server.RecvBatch(time.Now(), msgs); n != 0 || err != nil {
				t.Fatalf("poll of an empty socket = %d, %v; want 0, nil", n, err)
			}

			send()
			got := 0
			for deadline := time.Now().Add(5 * time.Second); got < 3 && time.Now().Before(deadline); {
				n, err := server.RecvBatch(time.Now(), msgs[got:])
				if err != nil {
					t.Fatalf("poll: %v", err)
				}
				got += n
				time.Sleep(time.Millisecond)
			}
			check("drain", msgs[:got])

			send()
			got = 0
			for got < 3 {
				n, err := server.RecvBatch(time.Now().Add(5*time.Second), msgs[got:])
				if err != nil {
					t.Fatalf("blocking read: %v", err)
				}
				got += n
			}
			check("blocking", msgs[:got])
		})
	}
}

// TestSetReadBufferReadsBack asks for a receive buffer and checks that
// the size reported is the one the kernel holds: at least the request,
// or net.core.rmem_max when the request exceeds it.
func TestSetReadBufferReadsBack(t *testing.T) {
	c, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const want = 300 << 10
	granted, err := c.SetReadBuffer(want)
	if err != nil {
		t.Fatal(err)
	}
	floor := want
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		if max, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && max < floor {
			floor = max
		}
	}
	if granted < floor {
		t.Errorf("granted receive buffer %d B, want >= %d B", granted, floor)
	}
	if again, err := c.ReadBuffer(); err != nil || again != granted {
		t.Errorf("second read-back = %d, %v; want %d", again, err, granted)
	}
}
