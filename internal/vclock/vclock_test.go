package vclock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockOffsetAndDrift(t *testing.T) {
	c := &Clock{Offset: 1.5, DriftPPM: 100}
	local := c.Local(10)
	// 10 s of true time gains 1 ms at 100 ppm, plus the 1.5 s offset.
	want := Time(10*1.0001 + 1.5)
	if math.Abs(float64(local-want)) > 1e-12 {
		t.Fatalf("local %v want %v", local, want)
	}
}

func TestClockInverseProperty(t *testing.T) {
	f := func(offMilli int16, driftSel int8, tSel uint32) bool {
		c := &Clock{Offset: float64(offMilli) / 1000, DriftPPM: float64(driftSel)}
		tt := Time(float64(tSel%360000) / 100) // up to 1 hour
		back := c.TrueTime(c.Local(tt))
		return math.Abs(float64(back-tt)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Local time must be strictly increasing in true time for any sane
	// drift (|drift| << 1e6 ppm).
	f := func(driftSel int8, aSel, bSel uint32) bool {
		c := &Clock{DriftPPM: float64(driftSel) * 3}
		a := Time(float64(aSel) / 1000)
		b := a + Time(float64(bSel%100000+1)/1e6)
		return c.Local(b) > c.Local(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestADCDACStamps(t *testing.T) {
	c := &Clock{Offset: 2, ADCLatency: 0.001}
	// Sound arriving at true t=5 is stamped at local(5.001).
	if got, want := c.StampADC(5), c.Local(5.001); got != want {
		t.Fatalf("ADC stamp %v want %v", got, want)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("now %v", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulerCascade(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(0.02, tick)
		}
	}
	s.After(0.02, tick)
	s.Run()
	if count != 100 {
		t.Fatalf("ticks %d", count)
	}
	if math.Abs(float64(s.Now())-2.0) > 1e-9 {
		t.Fatalf("now %v want 2.0", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(5, func() { fired++ })
	s.RunUntil(3)
	if fired != 1 {
		t.Fatalf("fired %d want 1", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("now %v want 3", s.Now())
	}
	if s.queue.Len() != 1 {
		t.Fatalf("pending %d", s.queue.Len())
	}
	s.RunUntil(10)
	if fired != 2 || s.Now() != 10 {
		t.Fatalf("fired %d now %v", fired, s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	s.At(1, func() {})
}

func TestSchedulerNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestSchedulerStressRandomOrder(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(42))
	var last Time = -1
	ok := true
	for i := 0; i < 5000; i++ {
		at := Time(rng.Float64() * 100)
		s.At(at, func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !ok {
		t.Fatal("events fired out of time order")
	}
}
