package hub

import (
	"fmt"
	"math/bits"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"ekho/internal/metrics"
	"ekho/internal/trace"
)

// latBuckets sizes the dispatch-latency histogram: bucket i counts
// packets whose receive-to-handled latency was in [2^(i-1), 2^i) ns, so
// the range spans 1 ns to ~9 s in powers of two.
const latBuckets = 34

// counters is the hub's always-on accounting: every field is a handle
// into the hub's metrics.Registry (resolved once at construction, so
// hot-path updates are single uncontended atomic adds — no lookups),
// which makes the registry the one source of truth behind Snapshot, the
// SIGHUP stat line and the /metrics endpoint alike.
type counters struct {
	reg *metrics.Registry

	active   *metrics.Gauge
	peak     *metrics.Gauge
	admitted *metrics.Counter
	rejected *metrics.Counter
	reaped   *metrics.Counter
	ended    *metrics.Counter

	packetsIn  *metrics.Counter
	packetsOut *metrics.Counter
	strays     *metrics.Counter
	sendErrs   *metrics.Counter

	measurements *metrics.Counter
	actions      *metrics.Counter
	resamples    *metrics.Counter

	// Pace loop: ticksSkipped counts overdue ticks dropped from the grid,
	// tickOverruns the loop's work that ran past the next tick's due time,
	// loopWakeups the loop's returns from a sleep or a blocking read, and
	// rcvbuf the socket receive buffer the kernel granted.
	ticksSkipped *metrics.Counter
	tickOverruns *metrics.Counter
	loopWakeups  *metrics.Counter
	rcvbuf       *metrics.Gauge

	// Marker plane: injections/matches/expiries across all sessions.
	injections *metrics.Counter
	matches    *metrics.Counter
	expired    *metrics.Counter

	// Chat uplink resequencing plane: conceals is the pipeline's gap
	// concealment and chatResyncs its resyncs past gaps too long to
	// conceal; the reorder* counters are the jitterbuf.Reorder stage's
	// routing decisions.
	conceals       *metrics.Counter
	chatResyncs    *metrics.Counter
	reordered      *metrics.Counter
	reorderLate    *metrics.Counter
	reorderDups    *metrics.Counter
	reorderFlushed *metrics.Counter

	// isdPeakMS tracks the fleet-wide peak |ISD| in milliseconds.
	isdPeakMS *metrics.FloatMax

	// latency is the packet-weighted dispatch-latency histogram, updated
	// once per handled batch. It stays a plain
	// atomic array (34 buckets would be 34 registry entries); /metrics
	// exports its quantiles through gauge functions instead. Held by
	// pointer so counters stays a plain copyable bag of handles.
	latency *[latBuckets]atomic.Int64
}

// newCounters resolves every hub metric in reg.
func newCounters(reg *metrics.Registry) counters {
	c := counters{
		reg:      reg,
		latency:  new([latBuckets]atomic.Int64),
		active:   reg.Gauge("ekho_sessions_active", "Currently admitted sessions."),
		peak:     reg.Gauge("ekho_sessions_peak", "High-water mark of concurrently admitted sessions."),
		admitted: reg.Counter("ekho_sessions_admitted_total", "Hellos admitted as new sessions."),
		rejected: reg.Counter("ekho_sessions_rejected_total", "Hellos refused with a busy reject."),
		reaped:   reg.Counter("ekho_sessions_reaped_total", "Sessions evicted for idleness."),
		ended:    reg.Counter("ekho_sessions_ended_total", "Sessions ended (bye, reap or shutdown)."),

		packetsIn:  reg.Counter("ekho_packets_in_total", "Decoded inbound datagrams."),
		packetsOut: reg.Counter("ekho_packets_out_total", "Successfully sent datagrams."),
		strays:     reg.Counter("ekho_packets_stray_total", "Datagrams for unknown sessions."),
		sendErrs:   reg.Counter("ekho_send_errors_total", "Failed datagram sends."),

		measurements: reg.Counter("ekho_isd_measurements_total", "ISD measurements across all sessions."),
		actions:      reg.Counter("ekho_compensation_actions_total", "Compensation actions across all sessions."),
		resamples:    reg.Counter("ekho_resamples_total", "Drift-regime resample retunes across all sessions."),

		ticksSkipped: reg.Counter("ekho_ticks_skipped_total", "Overdue media ticks skipped to keep the tick grid."),
		tickOverruns: reg.Counter("ekho_tick_overrun_total", "Pace loop passes whose work started before the next tick's due time and ended after it."),
		loopWakeups:  reg.Counter("ekho_loop_wakeups_total", "Pace loop wake-ups (a tick sleep or a blocking socket read returned)."),
		rcvbuf:       reg.Gauge("ekho_socket_rcvbuf_bytes", "Socket receive buffer granted by the kernel."),

		injections: reg.Counter("ekho_markers_injected_total", "PN markers injected into screen streams."),
		matches:    reg.Counter("ekho_markers_matched_total", "PN markers matched in returned chat audio."),
		expired:    reg.Counter("ekho_markers_expired_total", "PN markers expired unmatched."),

		conceals:       reg.Counter("ekho_chat_conceals_total", "Chat sequence gaps concealed by the pipeline."),
		chatResyncs:    reg.Counter("ekho_chat_resyncs_total", "Chat gaps too long to conceal; the session's estimator restarted."),
		reordered:      reg.Counter("ekho_chat_reordered_total", "Out-of-order chat packets resequenced before the pipeline."),
		reorderLate:    reg.Counter("ekho_chat_reorder_late_total", "Chat packets dropped as too late to resequence."),
		reorderDups:    reg.Counter("ekho_chat_reorder_dup_total", "Duplicate chat packets dropped by the resequencer."),
		reorderFlushed: reg.Counter("ekho_chat_reorder_flushed_total", "Chat gaps abandoned because the reorder window filled."),

		isdPeakMS: reg.Max("ekho_isd_peak_abs_ms", "Peak |ISD| measured across the fleet, in milliseconds."),
	}
	reg.GaugeFunc("ekho_marker_match_rate", "Matched / injected marker ratio.", func() float64 {
		inj := c.injections.Load()
		if inj == 0 {
			return 0
		}
		return float64(c.matches.Load()) / float64(inj)
	})
	reg.GaugeFunc("ekho_heap_bytes", "Bytes in live and not-yet-swept heap objects (runtime/metrics, no stop-the-world).", heapBytes)
	reg.GaugeFunc("ekho_heap_bytes_per_session", "ekho_heap_bytes divided by active sessions (0 when idle).", func() float64 {
		n := c.active.Load()
		if n <= 0 {
			return 0
		}
		return heapBytes() / float64(n)
	})
	return c
}

// heapBytes reads the heap's object bytes from runtime/metrics, which,
// unlike runtime.ReadMemStats, does not stop the world.
func heapBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// observeDispatch records one batch's receive-to-handled latency for all
// of its packets (one histogram update per batch, not per packet).
func (c *counters) observeDispatch(ns int64, packets int) {
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	c.latency[b].Add(int64(packets))
}

// LatencyHist is a point-in-time copy of the dispatch-latency histogram:
// bucket i counts packets whose latency was below 2^i ns.
type LatencyHist [latBuckets]int64

// Count returns the total number of packets observed.
func (l LatencyHist) Count() int64 {
	var n int64
	for _, v := range l {
		n += v
	}
	return n
}

// Sub returns the histogram of packets observed since prev.
func (l LatencyHist) Sub(prev LatencyHist) LatencyHist {
	for i := range l {
		l[i] -= prev[i]
	}
	return l
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed dispatch latency, at power-of-two resolution. It returns 0
// when the histogram is empty.
func (l LatencyHist) Quantile(q float64) time.Duration {
	total := l.Count()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, v := range l {
		seen += v
		if seen >= rank {
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(uint64(1) << (latBuckets - 1))
}

// DispatchLatency snapshots the histogram of the time from reading a
// batch of packets to having handled all of them (chat DSP and admission
// included), weighted by packet.
func (h *Hub) DispatchLatency() LatencyHist {
	var l LatencyHist
	for i := range l {
		l[i] = h.stats.latency[i].Load()
	}
	return l
}

// Snapshot is a point-in-time view of the hub's counters.
type Snapshot struct {
	// ActiveSessions / PeakSessions count currently admitted sessions
	// and the high-water mark over the hub's lifetime.
	ActiveSessions int64
	PeakSessions   int64
	// Admitted / Rejected / Reaped / Ended count session lifecycle
	// events: hellos admitted, hellos refused with TypeBusy, sessions
	// evicted for idleness, and sessions that ended (Bye, reap or hub
	// shutdown).
	Admitted int64
	Rejected int64
	Reaped   int64
	Ended    int64
	// PacketsIn / PacketsOut / Strays / SendErrors count datagrams:
	// decoded arrivals, successful sends, packets for unknown sessions,
	// and failed sends.
	PacketsIn  int64
	PacketsOut int64
	Strays     int64
	SendErrors int64
	// Shed is always 0: the hub drops no packet in user space. What it
	// cannot read by the next tick waits in the kernel's receive buffer.
	// The field stays because benchmark/ reads it.
	Shed int64
	// TicksSkipped counts media ticks the pace loop skipped because it
	// woke two or more ticks late. TickOverruns counts loop passes whose
	// work started before the next tick's due time and ended after it.
	// LoopWakeups counts the pace loop's wake-ups: every goroutine wake-up
	// the hub makes to do work.
	TicksSkipped int64
	TickOverruns int64
	LoopWakeups  int64
	// Measurements / Actions / Resamples aggregate the per-session
	// estimator and compensator activity across all sessions ever hosted
	// (Resamples counts drift-regime rate retunes).
	Measurements int64
	Actions      int64
	Resamples    int64
}

// Stats returns a consistent-enough snapshot of the hub counters (each
// field is individually atomic; no lock is taken). It is a thin read of
// the metrics registry — the same numbers /metrics serves.
func (h *Hub) Stats() Snapshot {
	c := &h.stats
	return Snapshot{
		ActiveSessions: c.active.Load(),
		PeakSessions:   c.peak.Load(),
		Admitted:       c.admitted.Load(),
		Rejected:       c.rejected.Load(),
		Reaped:         c.reaped.Load(),
		Ended:          c.ended.Load(),
		PacketsIn:      c.packetsIn.Load(),
		PacketsOut:     c.packetsOut.Load(),
		Strays:         c.strays.Load(),
		SendErrors:     c.sendErrs.Load(),
		TicksSkipped:   c.ticksSkipped.Load(),
		TickOverruns:   c.tickOverruns.Load(),
		LoopWakeups:    c.loopWakeups.Load(),
		Measurements:   c.measurements.Load(),
		Actions:        c.actions.Load(),
		Resamples:      c.resamples.Load(),
	}
}

// SessionInfo is the rich per-session snapshot served by the /sessions
// admin endpoint: the stable stat-line fields plus wire codec, marker
// and conceal counters, resequencer activity and the session's last and
// peak ISD.
type SessionInfo struct {
	ID           uint32  `json:"id"`
	Wire         string  `json:"wire"`
	Frames       int     `json:"frames"`
	Measurements int     `json:"measurements"`
	Actions      int     `json:"actions"`
	Pending      int     `json:"pending_markers"`
	Records      int     `json:"playback_records"`
	Resamples    int     `json:"resamples"`
	Injected     int     `json:"markers_injected"`
	Matched      int     `json:"markers_matched"`
	Expired      int     `json:"markers_expired"`
	Conceals     int     `json:"chat_conceals"`
	ISDLastMS    float64 `json:"isd_last_ms"`
	ISDPeakAbsMS float64 `json:"isd_peak_abs_ms"`
	ReorderHeld  uint64  `json:"chat_reordered"`
	ReorderLate  uint64  `json:"chat_reorder_late"`
	ReorderDups  uint64  `json:"chat_reorder_dups"`
	GapsFlushed  uint64  `json:"chat_reorder_flushed"`
}

// SessionInfos snapshots every live session. It takes the hub's mutex,
// so the result is race-free and the call waits behind the loop's
// current pass. It returns nil after the hub has closed. Results are
// sorted by session ID.
func (h *Hub) SessionInfos() []SessionInfo {
	h.mu.Lock()
	if h.isClosed() {
		h.mu.Unlock()
		return nil
	}
	var all []SessionInfo
	for _, s := range h.sessions {
		all = append(all, s.info())
	}
	h.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// SessionStats snapshots every live session in the stable one-line-per-
// session format (trace.SessionStat): a thin projection of SessionInfos,
// so live SIGHUP dumps and replay reports line up line for line.
func (h *Hub) SessionStats() []trace.SessionStat {
	infos := h.SessionInfos()
	stats := make([]trace.SessionStat, len(infos))
	for i, in := range infos {
		stats[i] = trace.SessionStat{
			ID:           in.ID,
			Frames:       in.Frames,
			Measurements: in.Measurements,
			Actions:      in.Actions,
			Pending:      in.Pending,
			Records:      in.Records,
			Resamples:    in.Resamples,
		}
	}
	return stats
}

// String formats the snapshot as a one-line status report.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"sessions active=%d peak=%d admitted=%d rejected=%d reaped=%d ended=%d | packets in=%d out=%d strays=%d senderrs=%d | ticks skipped=%d overruns=%d | measurements=%d actions=%d resamples=%d",
		s.ActiveSessions, s.PeakSessions, s.Admitted, s.Rejected, s.Reaped, s.Ended,
		s.PacketsIn, s.PacketsOut, s.Strays, s.SendErrors, s.TicksSkipped, s.TickOverruns,
		s.Measurements, s.Actions, s.Resamples)
}
