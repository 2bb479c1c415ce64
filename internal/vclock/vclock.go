// Package vclock provides the virtual time base used by the simulator:
// a discrete-event scheduler and per-device local clocks with offset,
// frequency drift and converter (ADC/DAC) latency.
//
// The paper's problem statement hinges on devices NOT sharing a clock
// (§3.2): each endpoint timestamps media with its own local clock, which is
// offset from true time by an unknown amount and drifts slowly. The
// simulator models this explicitly so that Ekho's claim — ISD estimation
// without any clock synchronization — is actually exercised: the estimator
// only ever sees local timestamps.
package vclock

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulation time in seconds since the start of the run.
// float64 keeps the math (sub-sample delays, drift) simple; at audio time
// scales (minutes) the 53-bit mantissa gives sub-nanosecond resolution.
type Time float64

// Duration is a span of simulation time in seconds.
type Duration = float64

// Clock converts true simulation time to a device's local time. Local time
// is what the device stamps on ADC captures and DAC playbacks.
type Clock struct {
	// Offset is the constant difference between local and true time at
	// t=0 (local = true + Offset at zero drift).
	Offset Duration
	// DriftPPM is the frequency error in parts per million. A clock with
	// +50 ppm gains 50 µs of local time per true second.
	DriftPPM float64
	// ADCLatency is the fixed hardware delay between sound hitting the
	// transducer and the sample being timestamped ("no variation" class
	// in §3.3).
	ADCLatency Duration
}

// Local converts true time to this device's local time.
func (c *Clock) Local(t Time) Time {
	return Time(float64(t)*(1+c.DriftPPM*1e-6) + c.Offset)
}

// TrueTime inverts Local.
func (c *Clock) TrueTime(local Time) Time {
	return Time((float64(local) - c.Offset) / (1 + c.DriftPPM*1e-6))
}

// StampADC returns the local timestamp a capture at true time t receives.
func (c *Clock) StampADC(t Time) Time { return c.Local(t + Time(c.ADCLatency)) }

// event is a scheduled callback in the discrete-event queue.
type event struct {
	at    Time
	seq   uint64 // tie-breaker preserving schedule order
	fn    func()
	index int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Scheduler is a deterministic discrete-event simulation loop. Events fire
// in timestamp order (FIFO among equal timestamps). All of netsim and the
// end-to-end session run on one Scheduler, which is what lets "30 minutes
// of streaming" complete in well under a second of wall time.
type Scheduler struct {
	now   Time
	queue eventQueue
	seq   uint64
}

// NewScheduler returns a scheduler at time zero.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	heap.Init(&s.queue)
	return s
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past (or
// exactly now) panics: it indicates a causality bug in the caller.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("vclock: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("vclock: negative or NaN delay %v", d))
	}
	s.At(s.now+Time(d), fn)
}

// Step runs the next pending event, returning false when the queue is empty.
func (s *Scheduler) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	e.fn()
	return true
}

// RunUntil processes events until the queue is empty or the next event is
// after deadline; time then advances to the deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for s.queue.Len() > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run drains the whole event queue.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
