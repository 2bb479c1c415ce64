package estimator

import (
	"reflect"
	"testing"
	"unsafe"

	"ekho/internal/acoustic"
	"ekho/internal/audio"
	"ekho/internal/gamesynth"
)

// The two-stage detector's steady state — heterodyne, decimate, coarse
// correlation blocks, peak scan, buffer trims — must run allocation-free:
// the hub feeds hundreds of concurrent sessions frame by frame, and any
// per-frame garbage multiplies across them. Detections themselves may
// allocate (a short emission slice roughly once per second per session);
// marker-free audio has none, so the bound here is exactly zero even
// across coarse FFT block boundaries.
func TestTwoStageFeedSteadyStateAllocs(t *testing.T) {
	clip := gamesynth.Generate(gamesynth.Catalog()[2], 8)
	d := NewIncrementalDetector(Config{Seq: testSeq})
	// Warm past several correlation blocks so every buffer reaches its
	// steady size.
	pos := 0
	feedFrame := func() {
		if pos+audio.FrameSamples > clip.Len() {
			pos = 0
		}
		d.Feed(clip.Samples[pos : pos+audio.FrameSamples])
		pos += audio.FrameSamples
	}
	for i := 0; i < 5*audio.SampleRate/audio.FrameSamples; i++ {
		feedFrame()
	}
	// 200 frames = 4 s of audio: covers two full coarse FFT blocks.
	if allocs := testing.AllocsPerRun(200, feedFrame); allocs > 0 {
		t.Fatalf("steady-state Feed allocates %v times per frame", allocs)
	}
}

// detectorBuffer is one of the detector's own buffers, for the footprint
// checks below.
type detectorBuffer struct {
	name      string
	cap, size int // elements, bytes per element
}

func detectorBuffers(d *IncrementalDetector) []detectorBuffer {
	const f, c = 8, 16
	return []detectorBuffer{
		{"rec", cap(d.rec), f},
		{"bb", cap(d.bb), c},
		{"mixBuf", cap(d.mixBuf), c},
		{"cz", cap(d.cz), c},
		{"scan.z", cap(d.scan.z), f},
		{"scan.zPrefix", cap(d.scan.zPrefix), f},
		{"scan.env", cap(d.scan.env), f},
		{"scan.cands", cap(d.scan.cands), int(unsafe.Sizeof(scanPeak{}))},
		{"conf.pending", cap(d.conf.pending), int(unsafe.Sizeof(pendingPeak{}))},
		{"refZt", cap(d.refZt), f},
		{"refPz", cap(d.refPz), f},
		{"refBp", cap(d.refBp), f},
		{"refEx", cap(d.refEx), f},
		{"refExOk", cap(d.refExOk), 1},
	}
}

// Every buffer is sized at construction to its peak under frame-sized
// feeds, so none regrows mid-stream: a regrown buffer leaves its outgrown
// storage behind as garbage, once per hub session. A minute of marked
// audio through a room channel runs ~35 correlation blocks and refines
// every marker. The log is the detector's per-session memory budget.
func TestDetectorBuffersNeverRegrow(t *testing.T) {
	marked, _ := makeMarked(t, 60, 0.5, 1)
	sig := acoustic.DefaultChannel().Transmit(marked).Samples
	d := NewIncrementalDetector(Config{Seq: testSeq})
	want := detectorBuffers(d)
	dets := 0
	for pos := 0; pos+audio.FrameSamples <= len(sig); pos += audio.FrameSamples {
		dets += len(d.Feed(sig[pos : pos+audio.FrameSamples]))
	}
	if dets < 50 {
		t.Fatalf("%d detections in 60 s of marked audio: refinement was not exercised", dets)
	}
	total := 0
	for i, b := range detectorBuffers(d) {
		t.Logf("%-13s %7d elements %9d bytes", b.name, b.cap, b.cap*b.size)
		total += b.cap * b.size
		if b.cap != want[i].cap {
			t.Errorf("%s regrew: capacity %d at construction, %d after 60 s", b.name, want[i].cap, b.cap)
		}
	}
	czTail, zTail, envTail := d.tailLens()
	n, step := d.corr.SegmentLen(), d.corr.Step()
	t.Logf("%-13s %7s          %9d bytes per session", "total", "", total)
	t.Logf("borrowed per block in flight (dsp free list, not per session): %d bytes",
		16*(n+czTail+n)+8*(zTail+step+zTail+1+step+envTail+step))
}

// Reset must be indistinguishable from a fresh detector, mid-stream or not.
func TestDetectorResetMatchesFresh(t *testing.T) {
	marked, _ := makeMarked(t, 8, 0.5, 3)
	feed := func(d *IncrementalDetector, samples []float64) []Detection {
		var out []Detection
		for pos := 0; pos+audio.FrameSamples <= len(samples); pos += audio.FrameSamples {
			out = append(out, d.Feed(samples[pos:pos+audio.FrameSamples])...)
		}
		return out
	}
	want := feed(NewIncrementalDetector(Config{Seq: testSeq}), marked.Samples)
	if len(want) == 0 {
		t.Fatal("no detections to compare")
	}
	d := NewIncrementalDetector(Config{Seq: testSeq})
	feed(d, marked.Samples[:marked.Len()*5/8])
	d.Reset()
	if got := feed(d, marked.Samples); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset: %v, fresh detector: %v", got, want)
	}
}
