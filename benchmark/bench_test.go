package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/netsim"
	"ekho/internal/serverpipe"
	"ekho/internal/transport"
	"ekho/internal/vclock"
)

// Same seed → identical per-session delay/offset/phase schedule; another
// seed → another schedule.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b := NewPlan(w, 7), NewPlan(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans for seed 7 differ", w.Name)
		}
		if len(a.Sessions) != w.Sessions {
			t.Errorf("%s: %d sessions planned, want %d", w.Name, len(a.Sessions), w.Sessions)
		}
		if c := NewPlan(w, 8); reflect.DeepEqual(a.Sessions, c.Sessions) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.Name)
		}
		for _, sp := range a.Sessions {
			if sp.AirDelaySamples < airDelayMinSamples || sp.AirDelaySamples > airDelayMaxSamples {
				t.Errorf("%s session %d: air delay %d samples outside [60, 260] ms", w.Name, sp.ID, sp.AirDelaySamples)
			}
			if sp.TickPhase < 0 || sp.TickPhase >= frameDur {
				t.Errorf("%s session %d: tick phase %v outside one frame", w.Name, sp.ID, sp.TickPhase)
			}
			if rough := sp.ScreenDown != (netsim.LinkConfig{}); rough != w.Rough {
				t.Errorf("%s session %d: impaired paths = %v, want %v", w.Name, sp.ID, rough, w.Rough)
			}
		}
	}
}

// Same seed → identical impairment schedule: two sets of links built from
// the same plan, offered the same send times and the same script, deliver
// and drop the same packets at the same times; every path loses exactly
// one scripted burst and the screen path steps by roughStepSec.
func TestImpairmentScheduleIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := WorkloadByName("rough_swb32")
	const span = 10.0
	trace := func(seed int64) (out []float64, lost [numPaths]int, screenShift float64) {
		plan := NewPlan(w, seed)
		sp := plan.Sessions[3]
		sched := vclock.NewScheduler()
		var links [numPaths]*netsim.Link
		var delaySum [numPaths][2]float64 // before / after the step
		var delayN [numPaths][2]float64
		for p, cfg := range []netsim.LinkConfig{sp.ScreenDown, sp.AccessoryDown, sp.ChatUp} {
			p := p
			links[p] = netsim.NewLink(cfg, sched, func(pk netsim.Packet) {
				out = append(out, float64(p), float64(pk.Seq), float64(sched.Now()))
				half := 0
				if float64(pk.SentAt) >= 2+span/2 {
					half = 1
				}
				delaySum[p][half] += float64(sched.Now() - pk.SentAt)
				delayN[p][half]++
			})
		}
		script := newRoughScript(2, span, 2+span/2, 1)
		for k := 0; k < int((span+4)/frameSec); k++ {
			now := float64(k) * frameSec
			sched.RunUntil(vclock.Time(now))
			script.apply(now, plan.Sessions[3:4], func(int) [numPaths]*netsim.Link { return links })
			for _, l := range links {
				l.Send(nil)
			}
		}
		sched.Run()
		for p, l := range links {
			lost[p] = l.Stats().Lost
		}
		mean := func(half int) float64 { return delaySum[pathScreenDown][half] / delayN[pathScreenDown][half] }
		return out, lost, mean(1) - mean(0)
	}
	a, lost, shift := trace(5)
	b, _, _ := trace(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different delivery schedules")
	}
	burst := int(netsim.PSNow.Down.BurstFactor)
	if lost != [numPaths]int{burst, burst, burst} {
		t.Errorf("scripted loss per path = %v, want one burst of %d on each", lost, burst)
	}
	if math.Abs(shift-roughStepSec) > 0.002 {
		t.Errorf("screen path delay stepped by %.1f ms, want %.0f ms", shift*1000, roughStepSec*1000)
	}
	if c, _, _ := trace(6); reflect.DeepEqual(a, c) {
		t.Error("seeds 5 and 6 gave the same delivery schedule")
	}
}

// serve plays the server for a Player: two content streams over one game
// clip, one frame each per tick, delivered the instant they are produced.
type serve struct {
	screen, accessory *serverpipe.Stream
	frame             []float64
	pcm               []int16
}

func newServe() *serve {
	game := audio.NewBuffer(sampleRate, 5*sampleRate)
	for i := range game.Samples {
		game.Samples[i] = 0.3 * math.Sin(float64(i)*0.05)
	}
	return &serve{
		screen: serverpipe.NewStream(game), accessory: serverpipe.NewStream(game),
		frame: make([]float64, frameSamples), pcm: make([]int16, frameSamples),
	}
}

func (s *serve) tick(p *Player, now float64) {
	for st, stream := range [numStreams]*serverpipe.Stream{s.screen, s.accessory} {
		fi := stream.Next(s.frame)
		for i, v := range s.frame {
			s.pcm[i] = audio.FloatToInt16(v)
		}
		p.PushMedia(st, &transport.Media{
			Seq: fi.Seq, ContentStart: fi.ContentStart, ContentOff: uint16(fi.ContentOff), Samples: s.pcm,
		}, now)
	}
}

// The player's ground-truth ISD equals the configured air delay before any
// compensation and 0 after an exact insert on the accessory stream.
func TestGroundTruthISD(t *testing.T) {
	sp := SessionPlan{ID: 1, AirDelaySamples: 7001, ClockOffsetMicros: 42_000_000, TickPhase: 3 * frameDur / 10}
	p := NewPlayer(sp, codec.Lossless)
	srv := newServe()
	run := func(ticks int) {
		for i := 0; i < ticks; i++ {
			now := p.NextTickTime()
			srv.tick(p, now-0.001)
			p.Tick()
		}
	}
	last := func() float64 { return p.Score.ISD[len(p.Score.ISD)-1] }

	run(100)
	want := float64(sp.AirDelaySamples) / sampleRate
	if len(p.Score.ISD) == 0 || math.Abs(last()-want) > 1e-9 {
		t.Fatalf("ground-truth ISD before compensation = %v, want the air delay %v", p.Score.ISD, want)
	}
	if _, ok := p.Score.ConvergeAt(0); ok {
		t.Error("an uncompensated 146 ms ISD counts as converged")
	}

	// Delay the accessory stream by exactly the air delay.
	srv.accessory.Apply(compensator.Action{
		Stream:        compensator.AccessoryStream,
		InsertFrames:  sp.AirDelaySamples / frameSamples,
		InsertSamples: sp.AirDelaySamples % frameSamples,
	})
	mark := len(p.Score.ISD)
	run(300)
	if math.Abs(last()) > 1e-9 {
		t.Fatalf("ground-truth ISD after an exact insert = %v, want 0", last())
	}
	for _, v := range p.Score.ISD[mark+20:] {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("ground-truth ISD %v after the insert settled, want 0", v)
		}
	}
	at, ok := p.Score.ConvergeAt(0)
	if !ok || at < p.Score.ISDAt[mark] {
		t.Errorf("ConvergeAt = %v, %v; want an instant after the insert at %v", at, ok, p.Score.ISDAt[mark])
	}
}

// The chat a player uplinks is the screen's DAC output, attenuated, air
// delay later, stamped on the device's own clock.
func TestMicHearsTheScreenThroughTheAirDelay(t *testing.T) {
	sp := SessionPlan{ID: 9, AirDelaySamples: 3000, ClockOffsetMicros: 5_000_000}
	p := NewPlayer(sp, codec.Lossless)
	srv := newServe()
	dec := codec.NewDecoder(codec.Lossless)
	var heard []float64
	var firstADC int64
	for i := 0; i < 60; i++ {
		srv.tick(p, p.NextTickTime())
		chat, ok := p.Tick()
		if !ok {
			continue
		}
		if heard == nil {
			firstADC = chat.ADCMicros
		}
		pcm, err := dec.DecodeTo(nil, chat.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		heard = append(heard, pcm...)
	}
	// The first content sample left the screen DAC at the tick that first
	// played; find it in the chat and check its delay.
	firstPlay := p.Score.ISDAt[0]
	micStart := float64(firstADC-sp.ClockOffsetMicros) / 1e6
	idx := -1
	for i, v := range heard {
		if v != 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("the mic heard nothing")
	}
	// game[0] = 0, so the first audible sample is content sample 1.
	got := micStart + float64(idx)/sampleRate - firstPlay
	want := float64(sp.AirDelaySamples+1) / sampleRate
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("screen audio reached the mic after %v s, want %v s", got, want)
	}
}

// A layer's self time is its span minus its children.
func TestSpanSelfTimes(t *testing.T) {
	spans := []Span{
		{Layer: LayerChat, Parent: -1, Start: 0, End: 1000},          // 0: root
		{Layer: LayerSocketRead, Parent: 0, Start: 10, End: 110},     // 1
		{Layer: LayerChatDecode, Parent: 0, Start: 200, End: 700},    // 2
		{Layer: LayerEstimator, Parent: 0, Start: 700, End: 900},     // 3
		{Layer: LayerCompensate, Parent: 3, Start: 750, End: 800},    // 4: nested in 3
		{Layer: LayerWireDecode, Parent: -1, Start: 1000, End: 1040}, // 5: a root of its own
		{Layer: LayerChatDecode, Parent: -1, Start: 2000, End: 2100}, // 6
	}
	got := SelfTimes(spans)
	want := map[Layer]LayerCost{
		LayerChat:       {Count: 1, SelfNS: 1000 - 100 - 500 - 200, TotalNS: 1000},
		LayerSocketRead: {Count: 1, SelfNS: 100, TotalNS: 100},
		LayerChatDecode: {Count: 2, SelfNS: 600, TotalNS: 600},
		LayerEstimator:  {Count: 1, SelfNS: 150, TotalNS: 200},
		LayerCompensate: {Count: 1, SelfNS: 50, TotalNS: 50},
		LayerWireDecode: {Count: 1, SelfNS: 40, TotalNS: 40},
	}
	for l := Layer(0); l < numLayers; l++ {
		if got[l] != want[l] {
			t.Errorf("%s: %+v, want %+v", l, got[l], want[l])
		}
	}

	// The tracer nests Begin/End pairs the same way.
	tr := NewTracer(4)
	root := tr.Begin(LayerTick, 1)
	child := tr.Begin(LayerInject, 1)
	tr.End(child)
	sib := tr.Begin(LayerSend, 1)
	tr.End(sib)
	tr.End(root)
	if tr.spans[child].Parent != root || tr.spans[sib].Parent != root || tr.spans[root].Parent != -1 {
		t.Errorf("tracer parents: %+v", tr.spans)
	}
	var none *Tracer
	none.End(none.Begin(LayerTick, 1)) // a nil tracer records nothing and does not panic
}

// Names, counts and the published contract.
func TestBenchmarkContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(EndToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(PerLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, w := range Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]SpecMetric(nil), EndToEndMetrics...), PerLayerMetrics...) {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}

	// BENCHMARK.json publishes exactly what the code reports.
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultRunSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark's default is %d", spec.RunSeconds, defaultRunSeconds)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the benchmark's is %q (%q)", i, got, w.Name, w.Why)
		}
	}
	bounds := 0
	for i := range spec.EndToEnd {
		m := &spec.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("BENCHMARK.json %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		bounds++
		m.Bound = 0
	}
	if !reflect.DeepEqual(spec.EndToEnd, EndToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nthe benchmark reports %+v", spec.EndToEnd, EndToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, PerLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's table")
	}
	if bounds != len(EndToEndMetrics) {
		t.Errorf("%d bounds for %d end-to-end metrics", bounds, len(EndToEndMetrics))
	}
}

func TestTimeline(t *testing.T) {
	for _, c := range []struct{ seconds, warm, win int }{{24, 9, 15}, {40, 15, 25}, {1, 0, 1}} {
		tl := NewTimeline(c.seconds)
		if int(tl.Warmup.Seconds()) != c.warm || int(tl.Window.Seconds()) != c.win {
			t.Errorf("%d s run: warm-up %v window %v, want %d + %d", c.seconds, tl.Warmup, tl.Window, c.warm, c.win)
		}
		if tl.StepAt < tl.Warmup || tl.StepAt >= tl.Total() {
			t.Errorf("%d s run: path step at %v is outside the window", c.seconds, tl.StepAt)
		}
	}
}

// A score's per-second buckets see exactly the window.
func TestScoreBuckets(t *testing.T) {
	var s Score
	s.SetWindow(10, 3)
	s.isd(9.99, 1)      // before the window
	s.isd(10.0, 0.002)  // second 0
	s.isd(10.5, -0.004) // second 0
	s.isd(12.99, 0.02)  // second 2
	s.isd(13.0, 1)      // after the window
	s.playout(streamScreen, 11.2, true)
	s.playout(streamAccessory, 11.3, false)
	if got := s.secs[0]; got.isdFrames != 2 || got.maxAbsISD != 0.004 {
		t.Errorf("second 0: %+v", got)
	}
	if got := s.secs[1]; got.underruns != [numStreams]int{1, 0} || got.ticks != [numStreams]int{1, 1} || got.isdFrames != 0 {
		t.Errorf("second 1: %+v", got)
	}
	if got := s.secs[2]; got.maxAbsISD != 0.02 {
		t.Errorf("second 2: %+v", got)
	}
	if len(s.ISD) != 5 {
		t.Errorf("the full series holds %d samples, want 5", len(s.ISD))
	}
}
