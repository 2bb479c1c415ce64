package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func allocFrame(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, FrameSamples)
	for i := range f {
		f[i] = 0.5 * rng.NormFloat64()
	}
	return f
}

// TestEncodeToMatchesEncode checks the append-style encoder produces
// byte-identical packets to the allocating API across all profiles.
func TestEncodeToMatchesEncode(t *testing.T) {
	for _, p := range []Profile{Lossless, SWB32, SWB24, SWB24ULL, swb24Low0} {
		e1, e2 := NewEncoder(p), NewEncoder(p)
		var dst []byte
		for i := 0; i < 5; i++ {
			frame := allocFrame(int64(i))
			want, err := e1.Encode(frame)
			if err != nil {
				t.Fatal(err)
			}
			dst, err = e2.EncodeTo(dst[:0], frame)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s frame %d: EncodeTo differs from Encode", p.Name, i)
			}
		}
	}
}

// TestDecodeToMatchesDecode checks the append-style decoder against the
// allocating API, including concealment.
func TestDecodeToMatchesDecode(t *testing.T) {
	for _, p := range []Profile{Lossless, SWB32, SWB24ULL} {
		enc := NewEncoder(p)
		d1, d2 := NewDecoder(p), NewDecoder(p)
		var dst []float64
		for i := 0; i < 5; i++ {
			pkt, err := enc.Encode(allocFrame(int64(i) + 100))
			if err != nil {
				t.Fatal(err)
			}
			var want []float64
			if i == 3 { // exercise concealment on both decoders
				want = d1.ConcealTo(nil)
				dst = d2.ConcealTo(dst[:0])
			} else {
				want, err = d1.Decode(pkt)
				if err != nil {
					t.Fatal(err)
				}
				dst, err = d2.DecodeTo(dst[:0], pkt)
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(dst) != len(want) {
				t.Fatalf("%s frame %d: len %d want %d", p.Name, i, len(dst), len(want))
			}
			for j := range want {
				if math.Abs(dst[j]-want[j]) > 1e-12 {
					t.Fatalf("%s frame %d sample %d: got %g want %g", p.Name, i, j, dst[j], want[j])
				}
			}
		}
	}
}

// TestCodecSteadyStateZeroAlloc asserts the per-frame encode/decode path
// allocates nothing once buffers are warm — the property the hub hot path
// depends on.
func TestCodecSteadyStateZeroAlloc(t *testing.T) {
	for _, p := range []Profile{Lossless, SWB32, SWB24ULL} {
		enc := NewEncoder(p)
		dec := NewDecoder(p)
		frame := allocFrame(7)
		var pkt []byte
		var out []float64
		var err error
		// Warm-up: grows dst buffers and concealment scratch.
		for i := 0; i < 3; i++ {
			if pkt, err = enc.EncodeTo(pkt[:0], frame); err != nil {
				t.Fatal(err)
			}
			if out, err = dec.DecodeTo(out[:0], pkt); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			pkt, err = enc.EncodeTo(pkt[:0], frame)
			if err != nil {
				t.Fatal(err)
			}
			out, err = dec.DecodeTo(out[:0], pkt)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: EncodeTo+DecodeTo allocates %v per frame, want 0", p.Name, allocs)
		}
		out = dec.ConcealTo(out[:0]) // warm concealment scratch
		allocs = testing.AllocsPerRun(20, func() {
			out = dec.ConcealTo(out[:0])
		})
		if allocs != 0 {
			t.Fatalf("%s: ConcealTo allocates %v per frame, want 0", p.Name, allocs)
		}
	}
}
