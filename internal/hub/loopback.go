package hub

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

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

// RecvBatch implements hub.Conn: while deadline lies ahead, one blocking
// receive; then a non-blocking drain of the endpoint queue until the
// batch fills. A deadline already passed only drains. The loopback fleet
// and equivalence tests therefore exercise exactly the batched wire path
// the live UDP server runs.
func (c *memConn) RecvBatch(deadline time.Time, msgs []transport.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	n := 0
	if wait := time.Until(deadline); wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for n == 0 {
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
		}
	}
	for n < len(msgs) {
		select {
		case <-c.done:
			return n, net.ErrClosed
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
