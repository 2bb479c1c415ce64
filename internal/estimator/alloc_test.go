package estimator

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"ekho/internal/acoustic"
	"ekho/internal/audio"
	"ekho/internal/dsp"
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

// bufferOf describes s, taking the element size from its type.
func bufferOf[T any](name string, s []T) detectorBuffer {
	var e T
	return detectorBuffer{name, cap(s), int(unsafe.Sizeof(e))}
}

func detectorBuffers(d *IncrementalDetector) []detectorBuffer {
	return []detectorBuffer{
		bufferOf("u", d.u),
		bufferOf("bb", d.bb),
		bufferOf("cz", d.cz),
		bufferOf("scan.z", d.scan.z),
		bufferOf("scan.zPrefix", d.scan.zPrefix),
		bufferOf("scan.env", d.scan.env),
		bufferOf("scan.cands", d.scan.cands),
		bufferOf("conf.pending", d.conf.pending),
	}
}

// detectorBudget bounds one detector's own storage, delay line included:
// 269,816 B, with a 5 % margin. A complex128 delay line held 335,384 B;
// retaining the full-rate audio as float32 for the refiner instead of the
// 12 kHz complex64 history held 475,696 B; a complex128 bb, or
// per-detector mixing and refinement scratch, held 519,866 B before that.
const detectorBudget = 277 << 10

// Every buffer is sized at construction to its peak under frame-sized
// feeds, so none regrows mid-stream: a regrown buffer leaves its outgrown
// storage behind as garbage, once per hub session. A minute of marked
// audio through a room channel runs ~35 correlation blocks and refines
// every marker. The log is the detector's per-session memory budget, held
// to detectorBudget.
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
	n, step := d.corr.SegmentLen(), d.corr.Block()
	// The correlator's delay line, P−1 segment spectra, is what a second
	// correlator allocates once the partition spectra are cached.
	wdec := coarseTemplateFor(testSeq).wdec
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dsp.NewPartitionedCorrelator(wdec, step, uint64(testSeq.Seed))
	runtime.ReadMemStats(&after)
	line := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%-13s %7d segments %9d bytes", "delay line", d.corr.Partitions()-1, line)
	t.Logf("%-13s %7s          %9d bytes per session (budget %d)", "total", "", total+line, detectorBudget)
	// In flight per block: the widened segment, cz (where its spectrum is
	// transformed) and the scan arrays.
	t.Logf("borrowed per block in flight (dsp free list, not per session): %d bytes",
		16*(n+czTail+n)+8*(zTail+step+zTail+1+step+envTail+step))
	t.Logf("borrowed per refinement in flight: %d bytes", 8*(normWindow/coarseFactor+3))
	if total+line > detectorBudget {
		t.Errorf("detector holds %d bytes per session, budget %d", total+line, detectorBudget)
	}
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
