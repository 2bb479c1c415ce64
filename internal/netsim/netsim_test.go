package netsim

import (
	"math"
	"testing"

	"ekho/internal/vclock"
)

func TestLinkDeliversInOrderWithDelay(t *testing.T) {
	sched := vclock.NewScheduler()
	var got []Packet
	l := NewLink(LinkConfig{BaseDelay: 0.05, Seed: 1}, sched, func(p Packet) { got = append(got, p) })
	for i := 0; i < 10; i++ {
		l.Send(i)
		sched.RunUntil(sched.Now() + 0.02)
	}
	sched.Run()
	if len(got) != 10 {
		t.Fatalf("delivered %d want 10", len(got))
	}
	for i, p := range got {
		if p.Seq != i {
			t.Fatalf("out of order: %v", got)
		}
		if p.Payload.(int) != i {
			t.Fatalf("payload %v", p.Payload)
		}
	}
}

func TestLinkDelayStatistics(t *testing.T) {
	sched := vclock.NewScheduler()
	count := 0
	var totalObserved float64
	sendTimes := map[int]vclock.Time{}
	l := NewLink(LinkConfig{BaseDelay: 0.05, JitterStd: 0.005, Seed: 2}, sched, func(p Packet) {
		count++
		totalObserved += float64(sched.Now() - sendTimes[p.Seq])
	})
	for i := 0; i < 2000; i++ {
		sendTimes[l.Send(nil)] = sched.Now()
		sched.RunUntil(sched.Now() + 0.02)
	}
	sched.Run()
	mean := totalObserved / float64(count)
	// Mean = base + jitter mean (Gamma k=2: mean = std*sqrt(2)).
	want := 0.05 + 0.005*math.Sqrt2
	if math.Abs(mean-want) > 0.002 {
		t.Fatalf("mean delay %g want ~%g", mean, want)
	}
	st := l.Stats()
	if st.Sent != 2000 {
		t.Fatalf("sent %d", st.Sent)
	}
	if math.Abs(st.MeanDelay-mean) > 1e-9 {
		t.Fatalf("stats mean %g vs observed %g", st.MeanDelay, mean)
	}
}

func TestLossRateConvergesToConfig(t *testing.T) {
	sched := vclock.NewScheduler()
	delivered := 0
	l := NewLink(LinkConfig{BaseDelay: 0.01, LossProb: 0.02, BurstFactor: 3, Seed: 3}, sched, func(Packet) { delivered++ })
	const n = 50000
	for i := 0; i < n; i++ {
		l.Send(nil)
		sched.RunUntil(sched.Now() + 0.001)
	}
	sched.Run()
	lossRate := float64(n-delivered) / n
	if lossRate < 0.01 || lossRate > 0.03 {
		t.Fatalf("loss rate %g want ~0.02", lossRate)
	}
	if l.Stats().Lost != n-delivered {
		t.Fatal("stats lost mismatch")
	}
}

func TestBurstyLossClusters(t *testing.T) {
	sched := vclock.NewScheduler()
	var lostSeqs []int
	deliveredSet := map[int]bool{}
	l := NewLink(LinkConfig{BaseDelay: 0.001, LossProb: 0.02, BurstFactor: 5, Seed: 4}, sched, func(p Packet) { deliveredSet[p.Seq] = true })
	const n = 30000
	for i := 0; i < n; i++ {
		l.Send(nil)
		sched.RunUntil(sched.Now() + 0.001)
	}
	sched.Run()
	for i := 0; i < n; i++ {
		if !deliveredSet[i] {
			lostSeqs = append(lostSeqs, i)
		}
	}
	if len(lostSeqs) < 100 {
		t.Fatalf("too few losses (%d) to assess burstiness", len(lostSeqs))
	}
	// Mean run length of consecutive losses should exceed 1.5 with
	// burst factor 5 (independent losses would give ~1.02).
	runs, runLen := 0, 0
	prev := -10
	for _, s := range lostSeqs {
		if s == prev+1 {
			runLen++
		} else {
			runs++
			runLen = 1
		}
		prev = s
	}
	meanRun := float64(len(lostSeqs)) / float64(runs)
	if meanRun < 1.5 {
		t.Fatalf("mean loss burst %g, want >= 1.5", meanRun)
	}
}

func TestZeroLossLink(t *testing.T) {
	sched := vclock.NewScheduler()
	delivered := 0
	l := NewLink(LinkConfig{BaseDelay: 0.01, Seed: 5}, sched, func(Packet) { delivered++ })
	for i := 0; i < 1000; i++ {
		l.Send(nil)
	}
	sched.Run()
	if delivered != 1000 {
		t.Fatalf("delivered %d want 1000 (no loss configured)", delivered)
	}
}

func TestExtraLatencyShiftsDelay(t *testing.T) {
	sched := vclock.NewScheduler()
	var arrivals []vclock.Time
	l := NewLink(LinkConfig{BaseDelay: 0.02, Seed: 6}, sched, func(Packet) { arrivals = append(arrivals, sched.Now()) })
	l.Send(nil)
	sched.Run()
	l.SetExtraLatency(0.1)
	base := sched.Now()
	l.Send(nil)
	sched.Run()
	d := float64(arrivals[1] - base)
	if math.Abs(d-0.12) > 1e-9 {
		t.Fatalf("delay with extra latency %g want 0.12", d)
	}
}

func TestAsymmetricPath(t *testing.T) {
	up := Asymmetric(WiFi, 0.03, 100)
	if math.Abs(up.BaseDelay-(WiFi.BaseDelay+0.03)) > 1e-12 {
		t.Fatalf("asymmetric base %g", up.BaseDelay)
	}
	if up.Seed == WiFi.Seed {
		t.Fatal("asymmetric seed should differ")
	}
	if down := Asymmetric(WiFi, -1, 1); down.BaseDelay != 0 {
		t.Fatal("negative base should clamp to 0")
	}
}

func TestPathBothDirections(t *testing.T) {
	sched := vclock.NewScheduler()
	var down, up int
	p := &Path{
		Down: NewLink(WiFi, sched, func(Packet) { down++ }),
		Up:   NewLink(Asymmetric(WiFi, 0.02, 1), sched, func(Packet) { up++ }),
	}
	p.Down.Send(nil)
	p.Up.Send(nil)
	sched.Run()
	if down != 1 || up != 1 {
		t.Fatalf("down %d up %d", down, up)
	}
}

func TestPresetsSanity(t *testing.T) {
	if !(Ethernet.BaseDelay < WiFi.BaseDelay && WiFi.BaseDelay < Cellular.BaseDelay) {
		t.Fatal("preset delay ordering")
	}
	if !(Ethernet.JitterStd < WiFi.JitterStd && WiFi.JitterStd < Cellular.JitterStd) {
		t.Fatal("preset jitter ordering")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		sched := vclock.NewScheduler()
		var at []float64
		l := NewLink(LinkConfig{BaseDelay: 0.02, JitterStd: 0.01, LossProb: 0.05, Seed: 7}, sched,
			func(Packet) { at = append(at, float64(sched.Now())) })
		for i := 0; i < 200; i++ {
			l.Send(nil)
			sched.RunUntil(sched.Now() + 0.005)
		}
		sched.Run()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic delivery count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic arrival times")
		}
	}
}

func TestReorderingProducesOutOfOrderDelivery(t *testing.T) {
	sched := vclock.NewScheduler()
	var seqs []int
	l := NewLink(LinkConfig{BaseDelay: 0.02, JitterStd: 0.015, ReorderProb: 0.5, Seed: 8}, sched,
		func(p Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 2000; i++ {
		l.Send(nil)
		sched.RunUntil(sched.Now() + 0.002)
	}
	sched.Run()
	if len(seqs) != 2000 {
		t.Fatalf("delivered %d", len(seqs))
	}
	ooo := 0
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			ooo++
		}
	}
	if ooo == 0 {
		t.Fatal("reorder probability 0.5 with heavy jitter should reorder packets")
	}
}

func TestForceDrop(t *testing.T) {
	sched := vclock.NewScheduler()
	delivered := map[int]bool{}
	l := NewLink(LinkConfig{BaseDelay: 0.01, Seed: 9}, sched, func(p Packet) { delivered[p.Seq] = true })
	l.Send(nil) // seq 0
	l.ForceDrop(2)
	l.Send(nil) // seq 1 dropped
	l.Send(nil) // seq 2 dropped
	l.Send(nil) // seq 3
	sched.Run()
	if !delivered[0] || delivered[1] || delivered[2] || !delivered[3] {
		t.Fatalf("forced drops wrong: %v", delivered)
	}
	if l.Stats().Lost != 2 {
		t.Fatalf("lost %d want 2", l.Stats().Lost)
	}
}

func TestBandwidthQueueingDelay(t *testing.T) {
	sched := vclock.NewScheduler()
	var delays []float64
	sent := map[int]vclock.Time{}
	// 600-byte packets at 50/s = 240 kbps offered; 300 kbps capacity →
	// utilization 0.8, bounded queue; halve capacity later to overload.
	l := NewLink(LinkConfig{BaseDelay: 0.01, BandwidthBps: 300_000, PacketBytes: 600, Seed: 10}, sched,
		func(p Packet) { delays = append(delays, float64(sched.Now()-sent[p.Seq])) })
	for i := 0; i < 200; i++ {
		sent[l.Send(nil)] = sched.Now()
		sched.RunUntil(sched.Now() + 0.02)
	}
	underLoad := delays[len(delays)-1]
	// 80% utilization with deterministic arrivals: tx time 16 ms fits in
	// the 20 ms interval, so no standing queue — delay ≈ base + tx.
	if underLoad < 0.025 || underLoad > 0.030 {
		t.Fatalf("delay at 80%% load %g want ~0.026", underLoad)
	}
	// Overload: 120 kbps capacity for 240 kbps offered → queue grows.
	l.SetBandwidth(120_000)
	for i := 0; i < 100; i++ {
		sent[l.Send(nil)] = sched.Now()
		sched.RunUntil(sched.Now() + 0.02)
	}
	sched.Run()
	overloaded := delays[len(delays)-1]
	if overloaded < 1.5*underLoad {
		t.Fatalf("overload delay %g should exceed %g substantially", overloaded, underLoad)
	}
}

func TestQueueTailDrop(t *testing.T) {
	sched := vclock.NewScheduler()
	delivered := 0
	l := NewLink(LinkConfig{BaseDelay: 0.001, BandwidthBps: 48_000, PacketBytes: 600, QueueLimit: 5, Seed: 11}, sched,
		func(Packet) { delivered++ })
	// Burst of 50 packets at once: tx time 100 ms each, queue limit 5.
	for i := 0; i < 50; i++ {
		l.Send(nil)
	}
	sched.Run()
	if delivered >= 50 {
		t.Fatal("tail drop never engaged")
	}
	if delivered < 5 {
		t.Fatalf("only %d delivered; queue should hold ~5", delivered)
	}
	if l.Stats().Lost != 50-delivered {
		t.Fatalf("lost %d delivered %d", l.Stats().Lost, delivered)
	}
}

func TestZeroBandwidthMeansNoQueueing(t *testing.T) {
	sched := vclock.NewScheduler()
	var maxDelay float64
	sent := map[int]vclock.Time{}
	l := NewLink(LinkConfig{BaseDelay: 0.02, Seed: 12}, sched, func(p Packet) {
		if d := float64(sched.Now() - sent[p.Seq]); d > maxDelay {
			maxDelay = d
		}
	})
	for i := 0; i < 100; i++ {
		sent[l.Send(nil)] = sched.Now()
	}
	sched.Run()
	if maxDelay > 0.0201 {
		t.Fatalf("no-bandwidth link delayed %g", maxDelay)
	}
}
