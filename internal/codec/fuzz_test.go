package codec

import (
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder: it must either error or
// return a finite frame, never panic or emit NaN/Inf samples.
func FuzzDecode(f *testing.F) {
	enc := NewEncoder(SWB32)
	pkt, _ := enc.Encode(make([]float64, FrameSamples))
	f.Add(pkt)
	encL := NewEncoder(Lossless)
	pktL, _ := encL.Encode(make([]float64, FrameSamples))
	f.Add(pktL)
	f.Add([]byte{})
	f.Add([]byte{magic, 0x01, 24})
	f.Add([]byte{magic, 0xFF, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(SWB32)
		out, err := dec.Decode(data)
		if err != nil {
			return
		}
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite sample from decode")
			}
		}
		// Concealment after any successful decode must also be finite.
		for _, v := range dec.ConcealTo(nil) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite sample from conceal")
			}
		}
	})
}
