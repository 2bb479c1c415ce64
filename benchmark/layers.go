package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ekho"
	"ekho/internal/codec"
	"ekho/internal/dsp"
	"ekho/internal/hub"
	"ekho/internal/pn"
	"ekho/internal/transport"
)

// LayerResult is the traced run's verdicts; its numbers go straight into
// the live result's per-layer metrics.
type LayerResult struct {
	Incorrect []string
}

// maxTraceOverhead is the most the spans may slow the traced sessions
// before the layer table stops being trusted (a warning, not a failure:
// the estimate compares two halves of a small fleet and is itself noisy).
const maxTraceOverhead = 0.1

// runLayers performs the traced shadow run and the in-process layer
// timings for a workload, writes the span file, and completes res.Layers
// with every per-layer metric that does not come from the live run.
func runLayers(w Workload, seed int64, outDir string, res *LiveResult) (*LayerResult, error) {
	sh, err := runShadow(w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s traced run: %w", w.Name, err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", w.Name, seed))
	if err := WriteSpans(path, sh.Spans); err != nil {
		return nil, err
	}
	dispatchNS, tickNS, err := timeHub(w)
	if err != nil {
		return nil, fmt.Errorf("%s in-process hub timing: %w", w.Name, err)
	}
	idleMS, err := timeIdlePath(w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s idle-path timing: %w", w.Name, err)
	}
	decimNS, corrNS := timeDSPKernels(sh.ChatAudio)

	lay := &LayerResult{}
	l := res.Layers
	c := sh.Costs
	ts := sh.TracedSessionSec
	per := func(ns int64, n int) float64 { return float64(ns) / math.Max(1, float64(n)) }

	// Socket read is RecvBatch minus the wire decode it contains.
	recvNS := c[LayerSocketRead].SelfNS - c[LayerWireDecode].TotalNS
	rtpWire := w.Wire == transport.WireRTP
	wire := func(isRTP bool, v float64) float64 {
		if isRTP == rtpWire {
			return v
		}
		return 0
	}
	l.set("transport.recv_ns_per_pkt", per(recvNS, sh.Chats), "ns")
	l.set("transport.decode_ns_per_pkt", wire(false, per(c[LayerWireDecode].TotalNS, sh.Chats)), "ns")
	l.set("rtp.decode_ns_per_pkt", wire(true, per(c[LayerWireDecode].TotalNS, sh.Chats)), "ns")
	l.set("transport.encode_media_ns_per_pkt", wire(false, per(c[LayerWireEncode].SelfNS, sh.MediaSent)), "ns")
	l.set("rtp.encode_media_ns_per_pkt", wire(true, per(c[LayerWireEncode].SelfNS, sh.MediaSent)), "ns")
	l.set("transport.send_ns_per_pkt", per(c[LayerSend].SelfNS, sh.MediaSent), "ns")
	l.set("jitterbuf.reorder_ns_per_pkt", per(c[LayerReorder].SelfNS, sh.Chats), "ns")
	l.set("codec.decode_ns_per_frame", per(c[LayerChatDecode].SelfNS, sh.Decoded+sh.Concealed), "ns")
	l.set("estimator.add_chat_ns_per_session_s", float64(c[LayerEstimator].SelfNS)/ts, "ns")
	l.set("dsp.band_decimate_ns_per_session_s", decimNS, "ns")
	l.set("dsp.coarse_correlate_ns_per_session_s", corrNS, "ns")
	l.set("pn.inject_ns_per_frame", per(c[LayerInject].SelfNS, sh.Frames), "ns")
	l.set("serverpipe.stream_next_ns_per_frame", per(c[LayerStreamNext].SelfNS, sh.MediaSent), "ns")
	l.set("serverpipe.match_ns_per_chat", per(c[LayerMatch].SelfNS, sh.Chats), "ns")
	l.set("serverpipe.pipeline_ns_per_session_s", float64(sh.PipelineNS)/(sh.TracedSessionSec+sh.UntracedSessionSec), "ns")
	l.set("compensator.offer_ns_per_measurement", per(c[LayerCompensate].SelfNS, sh.Measurements), "ns")
	l.set("hub.dispatch_ns_per_pkt", dispatchNS, "ns")
	l.set("hub.tick_ns_per_session", tickNS, "ns")

	// The table: every attributed row in ns per session-second, summed
	// against the live run's hub CPU per session-second.
	attributed := float64(recvNS)
	for _, layer := range []Layer{LayerWireDecode, LayerReorder, LayerMatch, LayerChatDecode, LayerEstimator,
		LayerCompensate, LayerStreamNext, LayerInject, LayerWireEncode, LayerSend} {
		if layer == LayerWireDecode {
			attributed += float64(c[layer].TotalNS)
		} else {
			attributed += float64(c[layer].SelfNS)
		}
	}
	attributedMS := (attributed/ts + dispatchNS*float64(sh.Chats)/ts) / 1e6
	// What a paced hub child pays per session-second to carry the same
	// chat datagrams into sessions that do nothing with them, beyond the
	// receive-side rows above: the wake-ups from idle, the scheduler, the
	// netpoller and its timers, and the tick fan-out.
	rxRowsMS := (float64(recvNS+c[LayerWireDecode].TotalNS+c[LayerReorder].SelfNS)/ts + dispatchNS*float64(sh.Chats)/ts) / 1e6
	wakeupMS := math.Max(0, idleMS-rxRowsMS)
	l.set("hub.idle_path_ms_per_session_s", idleMS, "ms")
	l.set("hub.wakeup_ms_per_session_s", wakeupMS, "ms")
	attributedMS += wakeupMS
	// Reconcile against the live run's hub CPU, when there was a live run.
	if hub, ok := l["hub.cpu_ms_per_session_s"]; ok {
		l.set("hub.residual_ms_per_session_s", hub.Value-attributedMS, "ms")
		l.set("layers.coverage_frac", attributedMS/hub.Value, "frac")
	}
	// Tracing overhead: the traced sessions' hub-side time per
	// session-second against the untraced sessions', medians so that a
	// scheduling hiccup in either half does not decide it.
	overhead := quantile(sh.TracedHubNS, 0.5)/quantile(sh.UntracedHubNS, 0.5) - 1
	l.set("layers.trace_overhead_frac", overhead, "frac")

	lay.Incorrect = append(lay.Incorrect, sh.Mismatch...)
	offPath := sh.Held + sh.Flushed + uint64(sh.Concealed)
	if w.Clean() {
		if sh.Converged != shadowSessions {
			lay.Incorrect = append(lay.Incorrect, fmt.Sprintf("traced run: %d of %d shadow sessions converged", sh.Converged, shadowSessions))
		}
		if offPath != 0 {
			lay.Incorrect = append(lay.Incorrect, fmt.Sprintf("traced run left the fast path on a clean workload (%d events)", offPath))
		}
	}
	if overhead > maxTraceOverhead {
		fmt.Printf("WARNING: layers.trace_overhead_frac %.3f > %.1f: the spans disturbed what they timed; distrust this layer table\n", overhead, maxTraceOverhead)
	}
	fmt.Printf("traced run: %d spans in %s; shadow ≡ pipeline on %d sessions; %d measurements, %d actions on the traced half\n",
		len(sh.Spans), path, shadowSessions-len(sh.Mismatch), sh.Measurements, sh.Actions)
	return lay, nil
}

// runTracedOnly is -traced: the traced run and layer timings alone,
// without the rows that need a live run's hub CPU to reconcile against.
func runTracedOnly(name string, seed int64, outDir string) error {
	w, ok := WorkloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res := &LiveResult{Workload: w.Name, Seed: seed, EndToEnd: Metrics{}, Layers: Metrics{}}
	lay, err := runLayers(w, seed, outDir, res)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, res.Layers)
	if len(lay.Incorrect) > 0 {
		return fmt.Errorf("traced run failed its checks: %v", lay.Incorrect)
	}
	return nil
}

// timeHub measures, on an in-process hub over MemNet with the workload's
// session count, what one dispatched data packet and one session tick
// cost. Both timed loops end at a SessionStats barrier (it round-trips
// through every shard worker's queue), so they measure processing, not
// enqueueing. Media-typed packets are a routing no-op in the session, so
// the dispatch figure is pure receive-side hand-off: routing, the
// per-shard sub-batch, the queue and the worker wake-up.
func timeHub(w Workload) (dispatchNS, tickNS float64, err error) {
	const (
		ticks   = 150
		packets = 60000
	)
	mem := hub.NewMemNet()
	h := hub.New(hub.Config{TickEvery: -1, IdleTimeout: -1, Capacity: w.Sessions, Codec: w.Uplink}, mem.Endpoint("hub"))
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve() }()
	defer func() {
		h.Close()
		if e := <-serveErr; err == nil {
			err = e
		}
	}()

	// Both endpoints of every session share two sink addresses whose
	// queues fill and then drop, like an unread socket.
	samples := make([]int16, ekho.FrameSamples)
	msgs := make([]transport.Message, 0, w.Sessions)
	for i := 0; i < w.Sessions; i++ {
		id := uint32(i + 1)
		for st, role := range endpointRoles {
			h.Dispatch(transport.Message{
				Type: transport.TypeHello, Session: id, Wire: w.Wire,
				Hello: transport.Hello{Session: id, Role: role},
				From:  mem.Endpoint(fmt.Sprintf("sink-%d", st)).LocalAddr(),
			})
		}
		msgs = append(msgs, transport.Message{
			Type: transport.TypeMedia, Session: id, Wire: w.Wire,
			Media: transport.Media{Seq: uint32(i), Session: id, Samples: samples},
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().Admitted < int64(w.Sessions) {
		if time.Now().After(deadline) {
			return 0, 0, errors.New("sessions never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	h.SessionStats()

	run := func(n int, f func()) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		h.SessionStats()
		return float64(time.Since(t0))
	}
	run(ticks/5, h.Tick) // warm
	tickNS = run(ticks, h.Tick) / float64(ticks*w.Sessions)
	batches := packets / len(msgs)
	run(batches/5, func() { h.DispatchBatch(msgs) })
	dispatchNS = run(batches, func() { h.DispatchBatch(msgs) }) / float64(batches*len(msgs))
	return dispatchNS, tickNS, nil
}

// idlePathSeconds is how long timeIdlePath offers traffic.
const idlePathSeconds = 3

// timeIdlePath measures what the receive path costs a live hub beyond its
// layers' own work. It spawns a hub child exactly as a live run does,
// admits the workload's sessions with their screen endpoint only — such a
// session never becomes ready, so its ticks and chat packets are dropped
// right after the reorder stage — and offers the workload's chat traffic
// (same datagram sizes, same 50/s per session spread over the tick
// period) for a few seconds. The child's CPU per session-second is then
// socket read + wire decode + dispatch + reorder + everything the traced
// run cannot see: wake-ups from idle, the scheduler, netpoll timers, tick
// fan-out.
func timeIdlePath(w Workload, seed int64) (ms float64, err error) {
	plan := NewPlan(w, seed)
	hp, err := startHub(w.Sessions, w.Uplink)
	if err != nil {
		return 0, err
	}
	defer func() {
		if hp != nil {
			hp.Kill()
		}
	}()
	conn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	enc := wireEncoder(w.Wire)
	for _, sp := range plan.Sessions {
		h := transport.Hello{Session: sp.ID, Role: transport.RoleScreen}
		if err := conn.SendTo(enc.AppendHello(nil, h), hp.Addr); err != nil {
			return 0, err
		}
	}
	// One real chat payload of the workload's size, re-sent under fresh
	// sequence numbers.
	payload, err := codec.NewEncoder(w.Uplink).EncodeTo(nil, make([]float64, frameSamples))
	if err != nil {
		return 0, err
	}
	sort.Slice(plan.Sessions, func(i, j int) bool { return plan.Sessions[i].TickPhase < plan.Sessions[j].TickPhase })

	ask := func() (HubStats, error) {
		var st HubStats
		if err := hp.Ask("stats"); err != nil {
			return st, err
		}
		line, err := hp.waitLine(5 * time.Second)
		if err != nil {
			return st, err
		}
		return st, json.Unmarshal([]byte(line), &st)
	}
	var wire []byte
	pkt := make([]transport.Packet, 1)
	start := time.Now()
	var before HubStats
	for k := 0; k < (idlePathSeconds+1)*sampleRate/frameSamples; k++ {
		if k == sampleRate/frameSamples { // one second of warm-up
			if before, err = ask(); err != nil {
				return 0, err
			}
		}
		for _, sp := range plan.Sessions {
			time.Sleep(time.Duration(k)*frameDur + sp.TickPhase - time.Since(start))
			wire, err = enc.AppendChat(wire[:0], transport.Chat{Seq: uint32(k), Session: sp.ID, Encoded: payload})
			if err != nil {
				return 0, err
			}
			pkt[0] = transport.Packet{Buf: wire, To: hp.Addr}
			if n, err := conn.SendBatch(pkt); n != 1 {
				return 0, err
			}
		}
	}
	after, err := ask()
	if err != nil {
		return 0, err
	}
	final, err := hp.Quit()
	hp = nil
	if err != nil {
		return 0, err
	}
	if got := final.Stats.Hub.Admitted; got != int64(w.Sessions) {
		return 0, fmt.Errorf("idle-path hub admitted %d of %d sessions", got, w.Sessions)
	}
	sessSec := float64(w.Sessions) * float64(after.WallNS-before.WallNS) / 1e9
	return float64(after.CPUNS-before.CPUNS) / 1e6 / sessSec, nil
}

// timeDSPKernels runs the two-stage detector's exported front-end kernels
// alone on a second of decoded chat audio: the fused band-translate +
// decimate chain (÷8 to a 6 kHz complex baseband) and the overlap-save
// coarse correlation against the equally decimated PN template. Both are
// contained in the estimator's row; they are reported to show where
// inside it the time goes. Values are ns per session-second of audio.
func timeDSPKernels(chat []float64) (decimNS, corrNS float64) {
	if len(chat) < sampleRate {
		return 0, 0
	}
	const reps = 20
	seq := pn.NewSequence(hubSeed, pn.DefaultLength)
	a, b := coarseFrontEnd()
	mid := a.Process(make([]complex128, 0, len(seq.Samples)/a.Factor()+1), seq.Samples)
	template := b.Process(make([]complex128, 0, len(mid)/2+1), mid)

	a, b = coarseFrontEnd()
	var midBuf, bb []complex128
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		midBuf = a.Process(midBuf[:0], chat[:sampleRate])
		bb = b.Process(bb[:0], midBuf)
	}
	decimNS = float64(time.Since(t0)) / reps

	corr := dsp.NewComplexCorrelator(template, dsp.NextPow2(2*len(template)))
	seg := make([]complex128, corr.SegmentLen())
	for i := range seg {
		seg[i] = bb[i%len(bb)]
	}
	var out []complex128
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		out = corr.CorrelateInto(out[:0], seg)
	}
	perBlock := float64(time.Since(t0)) / reps
	// One block yields Step() decimated lags; a session-second is
	// sampleRate/coarseFactor of them.
	corrNS = perBlock * float64(sampleRate/coarseFactor) / float64(corr.Step())
	return decimNS, corrNS
}

// coarseFactor is the two-stage detector's default decimation.
const coarseFactor = 8

// coarseFrontEnd rebuilds the two-stage detector's fused front-end for
// its default ÷8 from the exported dsp pieces, with the same filter
// design rules (estimator.fastFrontEnd is not exported).
func coarseFrontEnd() (*dsp.BandDecimator, *dsp.HalfBandDecimator) {
	const rate = float64(sampleRate)
	bandHalf := (pn.BandHighHz - pn.BandLowHz) / 2
	center := int((pn.BandLowHz + pn.BandHighHz) / 2)
	m1 := coarseFactor / 2
	r1 := rate / float64(m1)
	pass1 := math.Min(bandHalf, 0.85*r1/2)
	stop1 := r1 - pass1
	taps1 := int(math.Ceil(2.6 * rate / (stop1 - pass1)))
	a := dsp.NewBandDecimator(center, sampleRate, m1, dsp.LowPass((pass1+stop1)/2, rate, taps1).Taps)
	r2 := r1 / 2
	pass2 := math.Min(bandHalf, 0.75*r2/2)
	stop2 := r2 - pass2
	taps2 := int(math.Ceil(3.3 * r1 / (stop2 - pass2)))
	return a, dsp.NewHalfBandDecimator(dsp.LowPass((pass2+stop2)/2, r1, taps2).Taps)
}
