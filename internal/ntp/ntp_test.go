package ntp

import (
	"math"
	"testing"

	"ekho/internal/netsim"
	"ekho/internal/vclock"
)

func TestExchangeMath(t *testing.T) {
	// Client clock 2 s ahead; symmetric 50 ms each way; server holds 1 ms.
	e := Exchange{T1: 2.000, T2: 0.050, T3: 0.051, T4: 2.101}
	if math.Abs(e.Offset()-(-2.0)) > 1e-9 {
		t.Fatalf("offset %g want -2 (server minus client convention check)", e.Offset())
	}
}

func TestSymmetricPathSmallError(t *testing.T) {
	sched := vclock.NewScheduler()
	link := netsim.LinkConfig{BaseDelay: 0.040, JitterStd: 0.002, Seed: 1}
	clock := &vclock.Clock{Offset: 1.234}
	c := NewClient(sched, link, netsim.Asymmetric(link, 0, 50), clock)
	c.Run(20, 0.5)
	if len(c.events) < 18 {
		t.Fatalf("exchanges %d", len(c.events))
	}
	// Wait: Offset() estimates client-minus-server = -(clock offset)?
	// Offset() = ((T2-T1)+(T3-T4))/2; with client = true + off:
	// T2-T1 = d_up - off, T3-T4 = -(d_down + off) → offset = (d_up-d_down)/2 - off.
	// Symmetric: estimate = -off. The client code compares against
	// TrueOffset with matching sign.
	if err := c.OffsetError(); err > 0.005 {
		t.Fatalf("symmetric offset error %g want < 5 ms", err)
	}
}

func TestAsymmetricPathBiasedByHalf(t *testing.T) {
	sched := vclock.NewScheduler()
	down := netsim.LinkConfig{BaseDelay: 0.030, JitterStd: 0.001, Seed: 2}
	up := netsim.Asymmetric(down, 0.080, 60) // uplink 80 ms slower
	clock := &vclock.Clock{Offset: 0.5}
	c := NewClient(sched, up, down, clock)
	c.Run(20, 0.5)
	// Bias = asymmetry/2 = 40 ms, far above the 10 ms target.
	if err := c.OffsetError(); err < 0.030 || err > 0.050 {
		t.Fatalf("asymmetric offset error %g want ~0.040", err)
	}
}

func TestNoExchangesNaN(t *testing.T) {
	sched := vclock.NewScheduler()
	c := NewClient(sched, netsim.WiFi, netsim.WiFi, &vclock.Clock{})
	if !math.IsNaN(c.EstimatedOffset()) {
		t.Fatal("no data should be NaN")
	}
}
