package main

import (
	"math/rand"
	"time"

	"ekho"
	"ekho/internal/codec"
	"ekho/internal/netsim"
	"ekho/internal/transport"
)

// Device-clock constants shared by the live loadgen, the shadow run and
// the tests.
const (
	frameSamples = ekho.FrameSamples
	sampleRate   = ekho.SampleRate
	frameDur     = 20 * time.Millisecond
	frameSec     = float64(frameSamples) / sampleRate

	// jitterFrames is both devices' playout threshold (live/devices.go's
	// screen default). Equal thresholds make the pre-compensation ISD the
	// air delay alone.
	jitterFrames = 4
	// attenuation is the overheard screen-to-mic path gain.
	attenuation = 0.1
	// Seeded acoustic air delay range, sample-granular.
	airDelayMinSamples = 60 * sampleRate / 1000
	airDelayMaxSamples = 260 * sampleRate / 1000

	// syncThresholdSec is the paper's human echo threshold: a frame whose
	// ground-truth |ISD| reaches it is out of sync.
	syncThresholdSec = ekho.HumanEchoThresholdSec
	// convergeHoldSec is how long |ISD| must stay under the threshold for
	// a session to count as converged.
	convergeHoldSec = 3.0

	// micOnSpread is the range of the seeded mic-on delay (see
	// SessionPlan.MicOnDelay).
	micOnSpread = 2 * time.Second

	// roughStepSec is the extra one-way latency every screen path gains
	// early in the window on the rough workload. It must exceed the 80 ms
	// the screen's jitter buffer holds: a smaller step (the issue proposed
	// 60 ms) is absorbed by some sessions' buffers and shifts the ISD only
	// for those that happen to underrun, which made the workload's score a
	// coin toss per session.
	roughStepSec = 0.120
)

// Workload is one fixed offered load. Sizes are part of the benchmark's
// definition (BENCHMARK.json lists the names); README.md records why each
// was chosen.
type Workload struct {
	Name     string
	Why      string
	Sessions int
	Wire     transport.Wire
	Uplink   codec.Profile
	// Rough routes every datagram through netsim.PSNow's link shapes and
	// steps every screen path by roughStepSec mid-window.
	Rough bool
}

// Clean reports whether the workload keeps every packet on the hub's fast
// path (no loss, no reordering, no path change).
func (w Workload) Clean() bool { return !w.Rough }

// Workloads is the benchmark's fixed workload table.
var Workloads = []Workload{
	{
		Name:     "steady_swb32",
		Why:      "16 sessions, v2 framing, SWB32 chat: the paper's operating point; chat decode and the estimator dominate hub CPU",
		Sessions: 16, Wire: transport.WireV2, Uplink: codec.SWB32,
	},
	{
		Name:     "fanin_lossless",
		Why:      "32 sessions, v2, lossless 7.7 KB chat: 4.8k datagrams/s and 20 MB/s make socket, wire, dispatch, tick fan-out and egress dominate",
		Sessions: 32, Wire: transport.WireV2, Uplink: codec.Lossless,
	},
	{
		Name:     "fanin_rtp",
		Why:      "fanin_lossless over RTP framing: same hub layers, the wire layer used differently (depacketizer + sniffing)",
		Sessions: 32, Wire: transport.WireRTP, Uplink: codec.Lossless,
	},
	{
		Name:     "rough_swb32",
		Why:      "steady_swb32 over PSNow-shaped delay, scripted loss bursts and a +120 ms screen path step: reorder, conceal, expiry, re-compensation run",
		Sessions: 16, Wire: transport.WireV2, Uplink: codec.SWB32, Rough: true,
	},
}

// WorkloadByName resolves a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Timeline splits a run of the given length (after set-up) into warm-up
// and a measured window of whole seconds; operations are the window's
// session-seconds.
type Timeline struct {
	Warmup time.Duration
	Window time.Duration
	// StepAt is when (from the run's start) the rough workload's screen
	// paths gain roughStepSec.
	StepAt time.Duration
}

// NewTimeline gives 5/8 of the run to the window (25 s of 40, 15 s of
// 24) and places the path step a tenth into it: late enough that the
// first compensation's settling time is over, early enough that the
// re-convergence and its hold fit before the scripted losses begin.
func NewTimeline(runSeconds int) Timeline {
	win := runSeconds * 5 / 8
	if win < 1 {
		win = 1
	}
	warm := time.Duration(runSeconds-win) * time.Second
	window := time.Duration(win) * time.Second
	return Timeline{Warmup: warm, Window: window, StepAt: warm + window/10}
}

// Total is the run length after set-up.
func (t Timeline) Total() time.Duration { return t.Warmup + t.Window }

// SessionPlan is one seeded player: everything about a session that the
// seed decides.
type SessionPlan struct {
	ID uint32
	// AirDelaySamples is the screen-speaker-to-headset-mic delay.
	AirDelaySamples int
	// ClockOffsetMicros is the device clock's offset from the loadgen
	// clock (Ekho must not need clock sync).
	ClockOffsetMicros int64
	// TickPhase places the device's 20 ms playout grid.
	TickPhase time.Duration
	// MicOnDelay is how long after joining the headset starts uplinking
	// chat. Sessions that all start chatting in the same instant keep
	// their estimators' 1.73 s correlation blocks phase-aligned for the
	// whole run — an artifact of starting N sessions at once that turns
	// the hub's load into one synchronized burst; real sessions are never
	// aligned, so the delay spreads them over more than one block period.
	MicOnDelay time.Duration
	// ScreenDown / AccessoryDown / ChatUp shape the session's three
	// network paths (zero LinkConfig on clean workloads: no delay, no
	// loss). Seeds are per path.
	ScreenDown, AccessoryDown, ChatUp netsim.LinkConfig
	// LossAt places each path's scripted loss burst, as a fraction of the
	// impaired span (rough workloads only; see roughScript).
	LossAt [numPaths]float64
}

// The three network paths of a session.
const (
	pathScreenDown = iota
	pathAccessoryDown
	pathChatUp
	numPaths
)

// Plan is a workload instantiated for a seed: the full input schedule.
type Plan struct {
	Workload Workload
	Seed     int64
	Sessions []SessionPlan
}

// NewPlan draws every session's delay, clock offset, tick phase and path
// seeds from seed. The same (workload, seed) always yields the same plan;
// the hub sees none of it except through the datagrams it produces.
func NewPlan(w Workload, seed int64) Plan {
	return newPlanN(w, seed, w.Sessions)
}

func newPlanN(w Workload, seed int64, sessions int) Plan {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w.Name))))
	p := Plan{Workload: w, Seed: seed, Sessions: make([]SessionPlan, sessions)}
	// Tick phases and mic-on delays are stratified: each run gets the same
	// evenly spaced set of values, dealt to the sessions in a seeded order
	// from a seeded offset. How soon a session's first measurement comes
	// depends on where in a marker and in a 1.73 s estimator block its
	// chat starts, so convergence times are bimodal (≈ 3.0 s or ≈ 4.7 s);
	// with independent draws the share of slow sessions, and with it the
	// median, would swing from seed to seed.
	phases, mics := rng.Perm(sessions), rng.Perm(sessions)
	phase0, mic0 := rng.Float64(), rng.Float64()
	stratum := func(i int, offset float64, span time.Duration) time.Duration {
		d := time.Duration((float64(i) + offset) / float64(sessions) * float64(span))
		return d.Truncate(time.Microsecond)
	}
	for i := range p.Sessions {
		sp := SessionPlan{
			ID:                uint32(i + 1),
			AirDelaySamples:   airDelayMinSamples + rng.Intn(airDelayMaxSamples-airDelayMinSamples+1),
			ClockOffsetMicros: 1_000_000 + rng.Int63n(999_000_000),
			TickPhase:         stratum(phases[i], phase0, frameDur),
			MicOnDelay:        stratum(mics[i], mic0, micOnSpread),
		}
		if w.Rough {
			sp.ScreenDown, sp.AccessoryDown, sp.ChatUp = netsim.PSNow.Down, netsim.PSNow.Down, netsim.PSNow.Up
			for i, cfg := range []*netsim.LinkConfig{&sp.ScreenDown, &sp.AccessoryDown, &sp.ChatUp} {
				cfg.Seed = rng.Int63()
				cfg.LossProb = 0 // loss is scripted: see roughScript
				if i != pathChatUp {
					// netsim links deliver in order, so downlink jitter
					// exercises no hub layer; all it did was decide, per
					// session and per run, whether a device's jitter buffer
					// happened to start with little headroom and later
					// skipped a frame. The uplink keeps its jitter.
					cfg.JitterStd = 0
				}
				// Downlink losses shift the ISD; they come in the span's
				// last 40 %, after the path step has been re-compensated.
				sp.LossAt[i] = 0.6 + 0.3*rng.Float64()
			}
			sp.LossAt[pathChatUp] = 0.1 + 0.8*rng.Float64()
		}
		p.Sessions[i] = sp
	}
	return p
}

// roughScript is the rough workload's path schedule over an impaired span
// of a run: every screen path gains roughStepSec at stepAt, and every path
// of every session loses one burst of packets at its seeded LossAt.
//
// Loss is scripted rather than drawn per packet. PSNow's loss rates
// (0.15 % down, 0.2 % up, bursts of 3) put 0.6–0.8 bursts on each path of
// a 24 s run; drawn independently, a run would see anywhere from a third
// to three times the expected number of ISD-shifting events and its score
// would measure the draw. One burst per path per run is the same amount of
// loss with the count held fixed; only the timing is random (seeded).
type roughScript struct {
	start, length, stepAt float64
	stepped               bool
	lost                  [][numPaths]bool
}

func newRoughScript(start, length, stepAt float64, sessions int) *roughScript {
	return &roughScript{start: start, length: length, stepAt: stepAt, lost: make([][numPaths]bool, sessions)}
}

// apply fires every event due by time t. links(i) returns session i's
// three links in path order.
func (rs *roughScript) apply(t float64, plans []SessionPlan, links func(i int) [numPaths]*netsim.Link) {
	if !rs.stepped && t >= rs.stepAt {
		rs.stepped = true
		for i := range plans {
			links(i)[pathScreenDown].SetExtraLatency(roughStepSec)
		}
	}
	for i := range plans {
		for p, done := range rs.lost[i] {
			if !done && t >= rs.start+plans[i].LossAt[p]*rs.length {
				rs.lost[i][p] = true
				links(i)[p].ForceDrop(int(netsim.PSNow.Down.BurstFactor))
			}
		}
	}
}
