package audio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWAVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuffer(SampleRate, 4800)
	for i := range b.Samples {
		b.Samples[i] = rng.Float64()*1.8 - 0.9
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rate != SampleRate || back.Len() != b.Len() {
		t.Fatalf("rate %d len %d", back.Rate, back.Len())
	}
	for i := range b.Samples {
		if math.Abs(back.Samples[i]-b.Samples[i]) > 1.0/32768+1e-9 {
			t.Fatalf("sample %d: %g vs %g", i, back.Samples[i], b.Samples[i])
		}
	}
}

func TestWAVRoundTripProperty(t *testing.T) {
	f := func(seed int64, lenSel uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(lenSel) % 2000
		b := NewBuffer(SampleRate, n)
		for i := range b.Samples {
			b.Samples[i] = r.Float64()*2 - 1
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, b); err != nil {
			return false
		}
		back, err := ReadWAV(&buf)
		if err != nil {
			return false
		}
		if back.Len() != n {
			return false
		}
		for i := range b.Samples {
			if math.Abs(back.Samples[i]-b.Samples[i]) > 1.0/32768+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWAVRejectsGarbage(t *testing.T) {
	if _, err := ReadWAV(bytes.NewReader([]byte("not a wav file at all....."))); err == nil {
		t.Fatal("expected error")
	}
	// Correct RIFF magic but stereo content must be rejected.
	var buf bytes.Buffer
	b := NewBuffer(SampleRate, 10)
	if err := WriteWAV(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[22] = 2 // channels = 2
	_, err := ReadWAV(bytes.NewReader(raw))
	if err == nil || !errors.Is(err, ErrBadWAV) {
		t.Fatalf("want ErrBadWAV, got %v", err)
	}
}

func TestInt16Conversions(t *testing.T) {
	if FloatToInt16(2.0) != 32767 {
		t.Fatal("positive clamp")
	}
	if FloatToInt16(-2.0) != -32768 {
		t.Fatal("negative clamp")
	}
	if FloatToInt16(0) != 0 {
		t.Fatal("zero")
	}
	for _, v := range []int16{0, 16384, -32768} {
		f := Int16ToFloat(v)
		if f != float64(v)/32768 {
			t.Fatalf("Int16ToFloat(%d) = %g", v, f)
		}
		if back := FloatToInt16(f); back != v {
			t.Fatalf("FloatToInt16(Int16ToFloat(%d)) = %d", v, back)
		}
	}
}

// floatToInt16Round is the rounding-then-clamping conversion FloatToInt16
// must reproduce bit for bit.
func floatToInt16Round(v float64) int16 {
	s := math.Round(v * 32768)
	if s > 32767 {
		s = 32767
	}
	if s < -32768 {
		s = -32768
	}
	return int16(s)
}

// TestFloatToInt16MatchesRound checks the branchless FloatToInt16 against
// math.Round where they could part: at every half-integer sample value
// in [-70000, 70000] and the four doubles on each side of it, at the
// special values, and at random values across the whole double range.
func TestFloatToInt16MatchesRound(t *testing.T) {
	check := func(v float64) {
		if got, want := FloatToInt16(v), floatToInt16Round(v); got != want {
			t.Fatalf("FloatToInt16(%v) = %d, want %d (bits %#x)", v, got, want, math.Float64bits(v))
		}
	}
	for k := -70000; k <= 70000; k++ {
		h := float64(k) + 0.5
		lo, hi := h, h
		check(h / 32768)
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			check(lo / 32768)
			check(hi / 32768)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 0.49999999999999994 / 32768, -0.49999999999999994 / 32768} {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Float64()*4 - 2)                // around full scale
		check(rng.NormFloat64() * 0.1)            // typical audio
		check(math.Float64frombits(rng.Uint64())) // any double
	}
}
