// Package netsim provides the discrete-event network substrate for the
// end-to-end evaluation (§6.1): unidirectional packet links with
// configurable base delay, jitter, loss and reordering, composed into
// asymmetric bidirectional paths. Links run on a shared vclock.Scheduler,
// so simulated minutes complete in milliseconds of wall time.
//
// Presets model the paper's testbed: the screen device on a cellular
// connection, the controller on campus WiFi, and an Ethernet-connected
// reference. Loss follows a Gilbert-Elliott two-state model so that rare
// loss events arrive in short bursts, as observed on real wireless paths.
package netsim

import (
	"math"
	"math/rand"

	"ekho/internal/vclock"
)

// Packet is an opaque payload traversing a link.
type Packet struct {
	// Seq is the sender's sequence number.
	Seq int
	// SentAt is the true simulation time the packet entered the link.
	SentAt vclock.Time
	// Payload carries arbitrary application data.
	Payload any
}

// LinkConfig describes one direction of a network path.
type LinkConfig struct {
	// BaseDelay is the fixed one-way propagation+forwarding delay (s).
	BaseDelay float64
	// JitterStd is the standard deviation of a Gamma-distributed queuing
	// delay added per packet (s). Gamma keeps delays positive and skewed,
	// matching access-network queues.
	JitterStd float64
	// LossProb is the stationary packet loss probability.
	LossProb float64
	// BurstFactor shapes Gilbert-Elliott loss: the mean burst length in
	// packets (1 = independent losses).
	BurstFactor float64
	// ReorderProb is the chance a delayed packet is further delayed past
	// its successor (simple reordering model).
	ReorderProb float64
	// BandwidthBps, when positive, models the link's transmission rate:
	// packets serialize one after another (PacketBytes each) and queueing
	// delay emerges when the offered load approaches capacity.
	BandwidthBps float64
	// PacketBytes is the modelled datagram size (default 600: 20 ms of
	// compressed audio plus headers).
	PacketBytes int
	// QueueLimit bounds the FIFO in packets (0 = unbounded); packets
	// arriving at a full queue are tail-dropped.
	QueueLimit int
	// Seed drives the link's private RNG.
	Seed int64
}

// Typical path presets (one-way). Delay magnitudes follow Table 1 and §3.2.
var (
	// Ethernet: stable, fast, nearly lossless.
	Ethernet = LinkConfig{BaseDelay: 0.015, JitterStd: 0.001, LossProb: 0.00001, BurstFactor: 1}
	// WiFi: campus/home access point with moderate jitter.
	WiFi = LinkConfig{BaseDelay: 0.025, JitterStd: 0.004, LossProb: 0.0003, BurstFactor: 2}
	// Cellular: high delay, heavy jitter.
	Cellular = LinkConfig{BaseDelay: 0.060, JitterStd: 0.010, LossProb: 0.0005, BurstFactor: 3}
)

// Link is one unidirectional packet pipe.
type Link struct {
	cfg     LinkConfig
	sched   *vclock.Scheduler
	rng     *rand.Rand
	deliver func(Packet)

	inBadState   bool
	lastArrival  vclock.Time
	seq          int
	sent, lost   int
	delaySum     float64
	delayCount   int
	extraLatency float64     // dynamic additive latency (path changes)
	forcedDrops  int         // scripted losses still to apply
	busyUntil    vclock.Time // transmitter FIFO frontier (bandwidth model)
}

// NewLink creates a link delivering packets via the given callback.
func NewLink(cfg LinkConfig, sched *vclock.Scheduler, deliver func(Packet)) *Link {
	if cfg.BurstFactor < 1 {
		cfg.BurstFactor = 1
	}
	return &Link{
		cfg:     cfg,
		sched:   sched,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		deliver: deliver,
	}
}

// Send enqueues a payload. Returns the assigned sequence number.
func (l *Link) Send(payload any) int {
	seq := l.seq
	l.seq++
	l.sent++
	if l.forcedDrops > 0 {
		l.forcedDrops--
		l.lost++
		return seq
	}
	if l.dropped() {
		l.lost++
		return seq
	}
	// Bandwidth/queueing model: serialize through the FIFO transmitter.
	var queueWait float64
	if l.cfg.BandwidthBps > 0 {
		bytes := l.cfg.PacketBytes
		if bytes <= 0 {
			bytes = 600
		}
		txTime := float64(bytes*8) / l.cfg.BandwidthBps
		now := l.sched.Now()
		if l.busyUntil > now {
			queueWait = float64(l.busyUntil - now)
		}
		if l.cfg.QueueLimit > 0 && queueWait > float64(l.cfg.QueueLimit)*txTime {
			l.lost++ // tail drop at a full queue
			return seq
		}
		l.busyUntil = now + vclock.Time(queueWait+txTime)
		queueWait += txTime
	}
	delay := queueWait + l.sampleDelay()
	p := Packet{Seq: seq, SentAt: l.sched.Now(), Payload: payload}
	arrival := l.sched.Now() + vclock.Time(delay)
	// Optionally keep FIFO order (no reordering unless configured).
	if l.cfg.ReorderProb <= 0 || l.rng.Float64() >= l.cfg.ReorderProb {
		if arrival < l.lastArrival {
			arrival = l.lastArrival
		}
	}
	l.lastArrival = arrival
	l.delaySum += float64(arrival - p.SentAt)
	l.delayCount++
	l.sched.At(arrival, func() { l.deliver(p) })
	return seq
}

// dropped advances the Gilbert-Elliott loss chain and reports whether the
// current packet is lost.
func (l *Link) dropped() bool {
	p, burst := l.cfg.LossProb, l.cfg.BurstFactor
	if p <= 0 {
		return false
	}
	// Two-state chain: good->bad with rate pGB, bad->good with 1/burst.
	// Stationary loss = pGB*burst/(1+pGB*burst) ≈ p for small p.
	pGB := p / (burst * (1 - p))
	if l.inBadState {
		if l.rng.Float64() < 1/burst {
			l.inBadState = false
			return false
		}
		return true
	}
	if l.rng.Float64() < pGB {
		l.inBadState = true
		return true
	}
	return false
}

// sampleDelay draws the one-way delay for a packet.
func (l *Link) sampleDelay() float64 {
	d := l.cfg.BaseDelay + l.extraLatency
	if l.cfg.JitterStd > 0 {
		d += gammaJitter(l.rng, l.cfg.JitterStd)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// gammaJitter draws a positive skewed jitter with the given std using a
// Gamma(k=2) shape.
func gammaJitter(rng *rand.Rand, std float64) float64 {
	// Gamma with shape 2: sum of two exponentials; std = theta*sqrt(2).
	theta := std / math.Sqrt2
	return theta * (rng.ExpFloat64() + rng.ExpFloat64())
}

// SetExtraLatency adds (or removes) a path-change latency component — the
// "low-frequency variation" class of §3.3.
func (l *Link) SetExtraLatency(sec float64) { l.extraLatency = sec }

// ForceDrop schedules the next n packets to be lost — used to script the
// deterministic loss events of the Figure 9 session trace.
func (l *Link) ForceDrop(n int) { l.forcedDrops += n }

// SetBandwidth changes the modelled link capacity at runtime (0 disables
// the bandwidth model) — cross-traffic bursts and throttling scenarios.
func (l *Link) SetBandwidth(bps float64) { l.cfg.BandwidthBps = bps }

// Stats reports cumulative link statistics.
type Stats struct {
	Sent, Lost int
	MeanDelay  float64
}

// Stats returns the link's counters so far.
func (l *Link) Stats() Stats {
	s := Stats{Sent: l.sent, Lost: l.lost}
	if l.delayCount > 0 {
		s.MeanDelay = l.delaySum / float64(l.delayCount)
	}
	return s
}

// Path is a bidirectional, possibly asymmetric pair of links.
type Path struct {
	Down *Link // server -> device
	Up   *Link // device -> server
}

// Asymmetric derives an upstream config whose base delay differs by
// asymmetrySec from the downstream config (positive = slower upstream),
// modelling the forward/backward path asymmetry that breaks RTT/2
// estimation (§3.2).
func Asymmetric(down LinkConfig, asymmetrySec float64, seedOffset int64) LinkConfig {
	up := down
	up.BaseDelay += asymmetrySec
	if up.BaseDelay < 0 {
		up.BaseDelay = 0
	}
	up.Seed += seedOffset
	return up
}
