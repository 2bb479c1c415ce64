// Package ntp implements the network-based clock synchronization baselines
// that the paper argues are insufficient (§2, §3.2): an NTP-style offset
// exchange and plain RTT/2 one-way-delay estimation. Both assume symmetric
// forward/backward delays; over asymmetric paths the estimate is biased by
// half the asymmetry, which is what makes sub-10 ms synchronization
// unreachable with these tools (Table 1: 0-60 ms error from RTT asymmetry).
package ntp

import (
	"math"
	"sort"

	"ekho/internal/netsim"
	"ekho/internal/vclock"
)

// Exchange is one NTP-style four-timestamp measurement, all in seconds:
// T1 client send (client clock), T2 server receive (server clock),
// T3 server send (server clock), T4 client receive (client clock).
type Exchange struct {
	T1, T2, T3, T4 float64
}

// Offset returns the estimated client-minus-server clock offset under the
// symmetric-delay assumption: ((T2-T1) + (T3-T4)) / 2.
func (e Exchange) Offset() float64 {
	return ((e.T2 - e.T1) + (e.T3 - e.T4)) / 2
}

// Client runs NTP-style exchanges over a simulated path and estimates the
// clock offset between a device clock and the (true-time) server.
type Client struct {
	sched  *vclock.Scheduler
	path   *netsim.Path
	clock  *vclock.Clock
	events []Exchange
	// pending tracks in-flight requests by sequence.
	pending map[int]pendingReq
	seq     int
}

type pendingReq struct{ t1 float64 }

type request struct {
	id int
	t1 float64
}

type reply struct {
	id     int
	t1     float64
	t2, t3 float64
}

// NewClient wires an NTP client onto a path. The server end is simulated
// inside the client: uplink packets are answered immediately on arrival.
func NewClient(sched *vclock.Scheduler, up, down netsim.LinkConfig, clock *vclock.Clock) *Client {
	c := &Client{sched: sched, clock: clock, pending: make(map[int]pendingReq)}
	var downLink *netsim.Link
	upLink := netsim.NewLink(up, sched, func(p netsim.Packet) {
		// Server side: timestamp with true time (server clock = true).
		req := p.Payload.(request)
		now := float64(sched.Now())
		downLink.Send(reply{id: req.id, t1: req.t1, t2: now, t3: now})
	})
	downLink = netsim.NewLink(down, sched, func(p netsim.Packet) {
		rep := p.Payload.(reply)
		t4 := float64(c.clock.Local(sched.Now()))
		c.events = append(c.events, Exchange{T1: rep.t1, T2: rep.t2, T3: rep.t3, T4: t4})
		delete(c.pending, rep.id)
	})
	c.path = &netsim.Path{Up: upLink, Down: downLink}
	return c
}

// Poll issues one exchange now.
func (c *Client) Poll() {
	t1 := float64(c.clock.Local(c.sched.Now()))
	id := c.seq
	c.seq++
	c.pending[id] = pendingReq{t1: t1}
	c.path.Up.Send(request{id: id, t1: t1})
}

// Run issues count polls spaced interval seconds apart and drains the
// scheduler.
func (c *Client) Run(count int, interval float64) {
	for i := 0; i < count; i++ {
		c.Poll()
		c.sched.RunUntil(c.sched.Now() + vclock.Time(interval))
	}
	c.sched.Run()
}

// EstimatedOffset returns the client's estimate of its own clock offset
// (client minus server) as the negated median of the per-exchange NTP
// offsets, which measure server-minus-client. NTP proper uses minimum-RTT
// filtering; the median is a common simplification with the same
// asymmetry bias.
func (c *Client) EstimatedOffset() float64 {
	if len(c.events) == 0 {
		return math.NaN()
	}
	offs := make([]float64, len(c.events))
	for i, e := range c.events {
		offs[i] = e.Offset()
	}
	sort.Float64s(offs)
	return -offs[len(offs)/2]
}

// TrueOffset returns the actual client-minus-server offset at time zero
// (drift ignored for the short horizons simulated).
func (c *Client) TrueOffset() float64 { return c.clock.Offset }

// OffsetError returns |estimated − true| offset, the number that Table 1's
// "RTT asymmetry 0-60 ms" row quantifies.
func (c *Client) OffsetError() float64 {
	return math.Abs(c.EstimatedOffset() - c.TrueOffset())
}
