package main

import (
	"fmt"
	"math"
	"sort"

	"ekho/internal/hub"
)

// Generator-honesty limits: past any of them the numbers would measure
// the generator or the scheduler, not the hub, and the run is invalid.
// Arrivals are accounted by kernel timestamp, so a late device tick only
// delays that tick's chat uplink; one frame is where chat packets start
// to leave in bunches (and, at 7.7 KB each, to overflow the hub's socket).
const (
	maxTickLateP99MS = 20.0
	maxLoadgenCPU    = 0.8
)

// Correctness gate limits.
const (
	// maxISDErrP95MS bounds hub-reported ISD against ground truth on the
	// clean workloads.
	maxISDErrP95MS = 1.0
	// chatReorderWindow mirrors the hub's chat resequencer depth.
	chatReorderWindow = 4
	// isdPairLookbackSec is how far before a hub measurement surfaced the
	// ground-truth series is searched for the value it measured (marker
	// play-out → detection → companion wait → hold-back is 1.4–2.4 s).
	isdPairLookbackSec = 4.0
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// LiveResult is everything one live run produced.
type LiveResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Attempted is the window's session-seconds; OutOfSync counts those
	// that failed the issue's definition (underrun, |ISD| ≥ 10 ms, or the
	// session never served); HardFailed counts only the last kind.
	Attempted  int `json:"attempted"`
	OutOfSync  int `json:"out_of_sync"`
	HardFailed int `json:"hard_failed"`
	// Converged is the sample count behind converge_s_p50.
	Converged int `json:"converged_sessions"`
	// ISDErrSamples is the sample count behind estimator.isd_err_ms_p95.
	ISDErrSamples int `json:"isd_err_samples"`
	// MediaLateSamples is the sample count behind hub.media_late_ms_*.
	MediaLateSamples int `json:"media_late_samples"`

	EndToEnd Metrics `json:"end_to_end"`
	Layers   Metrics `json:"per_layer"`

	// Invalid lists generator-honesty violations (run must be discarded);
	// Incorrect lists failed correctness gates.
	Invalid   []string `json:"invalid,omitempty"`
	Incorrect []string `json:"incorrect,omitempty"`
}

// quantile returns the q-quantile of xs (sorted in place) by nearest rank;
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// bracket picks the polls nearest the window's two edges.
func bracket(polls []poll, start, end float64) (a, b *poll) {
	for i := range polls {
		p := &polls[i]
		if a == nil || math.Abs(p.at-start) < math.Abs(a.at-start) {
			a = p
		}
		if b == nil || math.Abs(p.at-end) < math.Abs(b.at-end) {
			b = p
		}
	}
	return a, b
}

// sumInfos totals per-session counters of one snapshot.
type infoTotals struct {
	injected, measurements, expired, conceals int
	held, flushed                             uint64
}

func sumInfos(infos []hub.SessionInfo) infoTotals {
	var t infoTotals
	for _, in := range infos {
		t.injected += in.Injected
		t.measurements += in.Measurements
		t.expired += in.Expired
		t.conceals += in.Conceals
		t.held += in.ReorderHeld
		t.flushed += in.GapsFlushed
	}
	return t
}

// scoreLive turns a finished live run into its result.
func scoreLive(lr *liveRun, setupTimes []float64, final *HubFinal) (*LiveResult, error) {
	res := &LiveResult{
		Workload: lr.plan.Workload.Name, Seed: lr.plan.Seed,
		EndToEnd: Metrics{}, Layers: Metrics{},
	}
	n := len(lr.sessions)
	winSec := lr.winEnd - lr.winStart
	a, b := bracket(lr.polls, lr.winStart, lr.winEnd)
	if a == nil || a == b {
		return nil, fmt.Errorf("hub answered %d stats polls; need the window's two edges", len(lr.polls))
	}

	// Which sessions did the hub serve for the whole run?
	ended := map[uint32]hub.SessionResult{}
	for _, r := range final.Results {
		ended[r.ID] = r
	}
	hs := final.Stats.Hub

	// Operations, playout ticks and convergence from the players.
	var ticks, underruns int
	var converge []float64
	for _, ls := range lr.sessions {
		sc := &ls.p.Score
		_, served := ended[ls.p.plan.ID]
		served = served && sc.ReadyAt >= 0 && sc.ReadyAt < lr.winStart
		for _, s := range sc.secs {
			res.Attempted++
			bad := !served || s.isdFrames == 0 || s.maxAbsISD >= syncThresholdSec
			for st := 0; st < numStreams; st++ {
				ticks += s.ticks[st]
				underruns += s.underruns[st]
				bad = bad || s.underruns[st] > 0 || s.ticks[st] == 0
			}
			if bad {
				res.OutOfSync++
			}
			if !served {
				res.HardFailed++
			}
		}
		if sc.ChatAt >= 0 {
			if at, ok := sc.ConvergeAt(sc.ChatAt); ok {
				converge = append(converge, at-sc.ChatAt)
			}
		}
	}
	res.Converged = len(converge)
	for len(converge) < n {
		converge = append(converge, lr.now()-lr.runStart) // never converged: censored at the run length
	}

	// Hub CPU over the window, normalised to the window's exact length:
	// the plain total for the layer table, and a robust reading for the
	// end-to-end score. On a shared VM whole seconds run up to twice as
	// slow when a neighbour is busy; the lower quartile of the window's
	// per-second readings is what the hub costs when left alone.
	hubCPU := float64(b.st.CPUNS-a.st.CPUNS) / 1e9
	hubWall := float64(b.st.WallNS-a.st.WallNS) / 1e9
	hubCPUWin := hubCPU * winSec / hubWall
	var perSec []float64
	for i := 1; i < len(lr.polls); i++ {
		p0, p1 := &lr.polls[i-1], &lr.polls[i]
		if p0.at >= a.at-0.5 && p1.at <= b.at+0.5 {
			perSec = append(perSec, float64(p1.st.CPUNS-p0.st.CPUNS)/float64(p1.st.WallNS-p0.st.WallNS))
		}
	}
	hubCPUQuiet := quantile(perSec, 0.25) * winSec
	inSync := float64(res.Attempted - res.OutOfSync)

	e := res.EndToEnd
	e.set("setup_s", quantile(append([]float64(nil), setupTimes...), 0.5), "s")
	e.set("insync_sessions_per_core", inSync/hubCPUQuiet, "1/core")
	e.set("insync_session_s_frac", inSync/float64(res.Attempted), "frac")
	e.set("playout_ok_frac", 1-float64(underruns)/math.Max(1, float64(ticks)), "frac")
	e.set("converge_s_p50", quantile(converge, 0.5), "s")
	e.set("hub_peak_rss_mb", float64(final.Stats.PeakRSSKB)/1024, "MB")

	// Hub-side layer counters over the window.
	l := res.Layers
	sessSec := float64(n) * winSec
	pktsIn := float64(b.st.Hub.PacketsIn - a.st.Hub.PacketsIn)
	pktsOut := float64(b.st.Hub.PacketsOut - a.st.Hub.PacketsOut)
	l.set("hub.cpu_ms_per_session_s", hubCPUWin*1000/sessSec, "ms")
	l.set("hub.cpu_sys_frac", float64(b.st.SysNS-a.st.SysNS)/float64(b.st.CPUNS-a.st.CPUNS), "frac")
	// Media cadence as the wire shows it: each stream's frames against
	// the 20 ms grid anchored at its earliest-on-grid frame in the window.
	fpsMin := math.Inf(1)
	var mediaLate []float64
	for _, ls := range lr.sessions {
		for st := range ls.arr {
			offs := ls.arr[st].offsets
			fpsMin = math.Min(fpsMin, float64(len(offs))/winSec)
			best := math.Inf(1)
			for _, o := range offs {
				best = math.Min(best, o)
			}
			for _, o := range offs {
				mediaLate = append(mediaLate, (o-best)*1000)
			}
		}
	}
	l.set("hub.media_fps_min", fpsMin, "1/s")
	res.MediaLateSamples = len(mediaLate)
	l.set("hub.media_late_ms_p50", quantile(mediaLate, 0.5), "ms")
	l.set("hub.media_late_ms_p99", quantile(mediaLate, 0.99), "ms")
	l.set("hub.dispatch_p99_ms", float64(b.st.Dispatch.Sub(a.st.Dispatch).Quantile(0.99))/1e6, "ms")
	l.set("hub.shed_frac", float64(b.st.Hub.Shed-a.st.Hub.Shed)/math.Max(1, pktsIn), "frac")
	l.set("hub.socket_drops", float64(final.Stats.SocketDrops), "count")
	l.set("hub.allocs_per_pkt", float64(b.st.Mallocs-a.st.Mallocs)/math.Max(1, pktsIn+pktsOut), "1/pkt")
	l.set("hub.gc_pause_ms_total", float64(b.st.GCPauseNS-a.st.GCPauseNS)/1e6, "ms")
	l.set("hub.admit_ms_per_session", (lr.hubReady-lr.helloAt)*1000/float64(n), "ms")
	l.set("transport.wire_bytes_per_session_s", float64(lr.wireBytes)/sessSec, "B")
	l.set("rtp.seq_anomalies", float64(final.Stats.RTPAnomalies), "count")

	ta, tb, tf := sumInfos(a.st.Sessions), sumInfos(b.st.Sessions), sumInfos(final.Stats.Sessions)
	l.set("jitterbuf.held_frac", float64(tb.held-ta.held)/math.Max(1, pktsIn), "frac")
	l.set("jitterbuf.flushed", float64(tf.flushed), "count")
	l.set("codec.conceal_frames", float64(tf.conceals), "count")
	l.set("serverpipe.markers_expired", float64(tf.expired), "count")
	l.set("estimator.match_rate", float64(tf.measurements)/math.Max(1, float64(tf.injected)), "frac")

	// Hub-reported ISD against ground truth, and the compensator's view.
	isdErr := isdErrors(lr)
	res.ISDErrSamples = len(isdErr)
	isdErrP95 := quantile(isdErr, 0.95)
	l.set("estimator.isd_err_ms_p95", isdErrP95, "ms")
	var actions float64
	var tail, reconv []float64
	stepAt := lr.runStart + lr.tl.StepAt.Seconds()
	for _, ls := range lr.sessions {
		sc := &ls.p.Score
		actions += float64(ended[ls.p.plan.ID].Actions)
		at, ok := sc.ConvergeAt(sc.ChatAt)
		for i, t := range sc.ISDAt {
			if ok && t >= at && t >= lr.winStart {
				tail = append(tail, math.Abs(sc.ISD[i])*1000)
			}
		}
		if lr.plan.Workload.Rough {
			if at, ok := sc.ConvergeAt(stepAt + roughStepSec); ok {
				reconv = append(reconv, at-stepAt)
			} else {
				reconv = append(reconv, lr.winEnd-stepAt)
			}
		}
	}
	l.set("compensator.actions_per_session", actions/float64(n), "count")
	l.set("compensator.first_action_miss_frac", float64(firstActionMisses(lr, ended))/float64(n), "frac")
	l.set("compensator.isd_tail_abs_ms_p95", quantile(tail, 0.95), "ms")
	l.set("compensator.reconverge_s_p50", quantile(reconv, 0.5), "s")

	// The instrument's own health.
	tickLate := quantile(lr.tickLateMS, 0.99)
	lgCPU := (lr.cpu1.cpu - lr.cpu0.cpu).Seconds() / (lr.cpu1.wall - lr.cpu0.wall)
	lgDrops := lr.drops
	l.set("loadgen.tick_late_ms_p99", tickLate, "ms")
	l.set("loadgen.cpu_frac", lgCPU, "frac")
	l.set("loadgen.socket_drops", float64(lgDrops), "count")
	l.set("loadgen.host_steal_frac", float64(lr.cpu1.steal-lr.cpu0.steal)/math.Max(1, float64(lr.cpu1.total-lr.cpu0.total)), "frac")
	if tickLate > maxTickLateP99MS {
		res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.tick_late_ms_p99 %.2f > %.0f", tickLate, maxTickLateP99MS))
	}
	if lgDrops > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.socket_drops %d > 0", lgDrops))
	}
	if lgCPU > maxLoadgenCPU {
		res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.cpu_frac %.2f > %.1f", lgCPU, maxLoadgenCPU))
	}

	// Correctness gates.
	fail := func(format string, args ...any) { res.Incorrect = append(res.Incorrect, fmt.Sprintf(format, args...)) }
	if hs.Admitted != int64(n) || hs.Rejected != 0 {
		fail("hub admitted %d and rejected %d of %d sessions", hs.Admitted, hs.Rejected, n)
	}
	if hs.Reaped != 0 {
		fail("hub reaped %d sessions", hs.Reaped)
	}
	if len(final.Results) != n {
		fail("hub reported %d session results, want %d", len(final.Results), n)
	}
	// The loadgen delivers a clean workload's chat in order and complete,
	// so the hub may leave its fast path only where its own kernel socket
	// dropped a datagram: each drop can park up to a reorder window of
	// packets, abandon one gap and conceal one frame.
	drops := float64(final.Stats.SocketDrops)
	offPath := []struct {
		name     string
		v, allow float64
	}{
		{"jitterbuf held", float64(tf.held), chatReorderWindow * drops},
		{"jitterbuf.flushed", float64(tf.flushed), drops},
		{"codec.conceal_frames", float64(tf.conceals), drops},
		{"serverpipe.markers_expired", float64(tf.expired), drops},
		{"rtp.seq_anomalies", float64(final.Stats.RTPAnomalies), 2 * drops},
	}
	if lr.plan.Workload.Clean() {
		for _, c := range offPath {
			if c.v > c.allow {
				fail("clean workload left the fast path: %s = %.0f with %.0f hub socket drops", c.name, c.v, drops)
			}
		}
		if isdErrP95 > maxISDErrP95MS {
			fail("estimator.isd_err_ms_p95 %.3f ms > %.1f ms", isdErrP95, maxISDErrP95MS)
		}
		if len(isdErr) == 0 {
			fail("no hub ISD measurement could be paired with ground truth")
		}
		for _, ls := range lr.sessions {
			if r, ok := ended[ls.p.plan.ID]; !ok || r.Actions == 0 {
				fail("session %d never compensated", ls.p.plan.ID)
			}
		}
	} else if tf.held+uint64(tf.conceals) == 0 {
		fail("rough workload never left the fast path (held %d, conceals %d)", tf.held, tf.conceals)
	}
	return res, nil
}

// isdErrors pairs every hub measurement that surfaced between two polls
// with the ground-truth ISD series of its session: the error is the
// distance to the nearest ground-truth value the player observed in the
// few seconds before the measurement surfaced.
func isdErrors(lr *liveRun) []float64 {
	var errs []float64
	prev := map[uint32]int{}
	for _, p := range lr.polls {
		for _, in := range p.st.Sessions {
			was := prev[in.ID]
			prev[in.ID] = in.Measurements
			if in.Measurements <= was || int(in.ID) > len(lr.sessions) {
				continue
			}
			sc := &lr.sessions[in.ID-1].p.Score
			best := math.Inf(1)
			for i, t := range sc.ISDAt {
				if t < p.at-isdPairLookbackSec || t > p.at {
					continue
				}
				best = math.Min(best, math.Abs(in.ISDLastMS-sc.ISD[i]*1000))
			}
			if !math.IsInf(best, 1) {
				errs = append(errs, best)
			}
		}
	}
	return errs
}

// firstActionMisses counts sessions whose first compensation did not
// cancel an ISD the player really had before converging (the seeded air
// delay, plus a frame or two when the two jitter buffers started on
// different ticks), to within the compensator's one-frame granularity.
// The usual cause is a first marker heard only in part — the headset
// started chatting, or the devices re-buffered, in the middle of it — and
// the estimator locking onto the wrong lag; the session re-compensates
// after the settling time and converge_s_p50 and insync_session_s_frac
// carry the cost.
func firstActionMisses(lr *liveRun, ended map[uint32]hub.SessionResult) int {
	misses := 0
	for _, ls := range lr.sessions {
		r, ok := ended[ls.p.plan.ID]
		if !ok || r.Actions == 0 {
			continue
		}
		got := float64(r.FirstActionFrames) * frameSec
		sc := &ls.p.Score
		until, ok := sc.ConvergeAt(sc.ChatAt)
		if !ok {
			until = math.Inf(1)
		}
		off := math.Inf(1)
		for i, t := range sc.ISDAt {
			if t <= until {
				off = math.Min(off, math.Abs(got-sc.ISD[i]))
			}
		}
		if off > frameSec {
			misses++
		}
	}
	return misses
}
