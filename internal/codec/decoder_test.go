package codec

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// decodeLossy runs a fixed 12-packet stream through a fresh encoder and
// decoder for the profile, losing packet 5 (concealed instead), and returns
// an FNV-64a hash of every output sample's float bits.
func decodeLossy(t *testing.T, p Profile) uint64 {
	t.Helper()
	enc, dec := NewEncoder(p), NewDecoder(p)
	h := fnv.New64a()
	var pkt []byte
	var out []float64
	var b [8]byte
	for i := 0; i < 12; i++ {
		var err error
		if pkt, err = enc.EncodeTo(pkt[:0], allocFrame(int64(i)+300)); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			out = dec.ConcealTo(out[:0])
		} else if out, err = dec.DecodeTo(out[:0], pkt); err != nil {
			t.Fatal(err)
		}
		for _, v := range out {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestDecoderOutputPinned holds every lossy profile's encode → decode →
// conceal path to its output bits: transform and scratch changes must be
// bit-identical.
func TestDecoderOutputPinned(t *testing.T) {
	for _, c := range []struct {
		p    Profile
		want uint64
	}{
		{SWB32, 0x1e243ea7fa6164e1},
		{SWB24, 0x2df7d55218e94025},
		{SWB24ULL, 0x0d6e61de6ec558f2},
		{swb24Low0, 0x92a82d7fc3c4342f},
	} {
		if got := decodeLossy(t, c.p); got != c.want {
			t.Errorf("%s: output hash %#016x, pinned %#016x", c.p.Name, got, c.want)
		}
	}
}

// TestDecoderFootprint bounds what a decoder keeps between calls — the hub
// holds one per session. Transform scratch is borrowed per call and the
// window and MDCT plan are shared, so a lossy decoder retains its overlap
// tail and concealment magnitudes, and a lossless one next to nothing.
// Measured as the live-heap growth over 200 decoders, each after one
// decode and one concealment. Skipped under -race, whose instrumentation
// distorts heap counts.
func TestDecoderFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts heap counts")
	}
	for _, c := range []struct {
		p     Profile
		limit int64
	}{
		{SWB32, 16 << 10},
		{Lossless, 8 << 10},
	} {
		const n = 200
		pkt, err := NewEncoder(c.p).Encode(allocFrame(9))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, FrameSamples)
		// Warm the shared tables and the scratch free list, which belong to
		// no decoder.
		warm := NewDecoder(c.p)
		out, _ = warm.DecodeTo(out[:0], pkt)
		out = warm.ConcealTo(out[:0])
		decs := make([]*Decoder, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range decs {
			decs[i] = NewDecoder(c.p)
			if out, err = decs[i].DecodeTo(out[:0], pkt); err != nil {
				t.Fatal(err)
			}
			out = decs[i].ConcealTo(out[:0])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(decs)
		per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
		t.Logf("%s: %.1f KB retained per decoder (limit %d KB)", c.p.Name, float64(per)/1024, c.limit>>10)
		if per > c.limit {
			t.Errorf("%s: %d B retained per decoder, limit %d", c.p.Name, per, c.limit)
		}
	}
}
