package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"ekho/internal/codec"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/netsim"
	"ekho/internal/serverpipe"
)

// testHeader is a header with every field set to a non-default value, so
// round-trip tests cannot pass by accident.
func testHeader() Header {
	return Header{
		SessionID:   77,
		ClipIndex:   13,
		ClipSeconds: 7.5,
		Seed:        -987654321,
		SeqLen:      640,
		MarkerC:     0.75,
		Codec: codec.Profile{
			Name: "custom-wb", Lossless: false, BitrateKbps: 24,
			BandwidthHz: 8000, Complexity: 5, LowDelay: true,
		},
		Compensator:        compensator.Config{MinCorrectionSec: 0.012, SettleSec: 4.5, SubFrame: true},
		InjectorLogLimit:   -1,
		DisableMarkers:     false,
		InterpolatedInsert: true,
		MutedScreen:        true,
		ChatStartsAtZero:   true,
		MutedMarkerAmpDB:   9.5,
		Drift: compensator.DriftConfig{
			Enabled: true, EngagePPM: 25, ReleasePPM: 8, MaxPPM: 350,
			MaxStepPPM: 55, SettleSec: 6.5, TStat: 2.25, BlankSec: 3.25,
		},
		DriftTracker: estimator.DriftConfig{
			Window: 48, SpanSec: 25, MinPoints: 5, MinSpanSec: 3.5,
		},
		Detector: DetectorLegacy,
	}
}

// A trace recorded before the coarse-to-fine detector existed ends before
// the detector byte; its session can only have run the removed full-rate
// streaming detector, so the decoder must say so explicitly rather than
// leave the zero value, and a byte naming no detector is corruption.
func TestHeaderDetectorTailAbsent(t *testing.T) {
	h := testHeader()
	h.Detector = DetectorCoarseFine
	b := appendHeader(nil, h)
	got, err := decodeHeader(b[:len(b)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Detector != DetectorLegacy {
		t.Fatalf("absent detector tail decoded as %d, want DetectorLegacy", got.Detector)
	}
	b[len(b)-1] = 2
	if _, err := decodeHeader(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("detector byte 2: got %v, want ErrCorrupt", err)
	}
}

// randomTap emits one random tap call on the recorder and returns the Rec
// the reader should produce for it.
func randomTap(rng *rand.Rand, r *Recorder) Rec {
	now := rng.Float64() * 300
	switch rng.Intn(11) {
	case 0:
		r.Tick(now)
		return Rec{Type: RecTick, Now: now}
	case 1:
		rec := serverpipe.Record{
			ContentStart: rng.Int63n(1 << 40),
			N:            rng.Intn(960),
			LocalTime:    rng.NormFloat64() * 10,
		}
		r.OfferRecord(now, rec)
		return Rec{Type: RecRecord, Now: now, Content: rec.ContentStart, N: rec.N, LocalTime: rec.LocalTime}
	case 2:
		seq := rng.Uint32()
		adc := rng.NormFloat64() * 100
		enc := make([]byte, rng.Intn(200))
		rng.Read(enc)
		r.OfferChat(now, seq, adc, enc)
		return Rec{Type: RecChat, Now: now, Seq: seq, ADCLocal: adc, Encoded: enc}
	case 3:
		stream := uint8(rng.Intn(2))
		fi := serverpipe.FrameInfo{
			Seq:          rng.Uint32(),
			ContentStart: rng.Int63n(1<<40) - 1,
			ContentOff:   rng.Intn(960),
		}
		size := rng.Intn(4096)
		r.MediaOut(stream, fi, size)
		return Rec{Type: RecMediaOut, Stream: stream, Seq: fi.Seq, Content: fi.ContentStart, ContentOff: fi.ContentOff, Size: size}
	case 4:
		c := rng.Int63n(1 << 40)
		r.MarkerInjected(c)
		return Rec{Type: RecMarkerInjected, Content: c}
	case 5:
		c := rng.Int63n(1 << 40)
		lt := rng.NormFloat64() * 50
		r.MarkerMatched(c, lt)
		return Rec{Type: RecMarkerMatched, Content: c, LocalTime: lt}
	case 6:
		c := rng.Int63n(1 << 40)
		r.MarkerExpired(c)
		return Rec{Type: RecMarkerExpired, Content: c}
	case 7:
		seq := rng.Uint32()
		lt := rng.NormFloat64() * 50
		r.ChatGapConcealed(seq, lt)
		return Rec{Type: RecChatConcealed, Seq: seq, LocalTime: lt}
	case 8:
		m := estimator.Measurement{
			ISDSeconds:    rng.NormFloat64() * 0.3,
			DetectionTime: rng.Float64() * 300,
			MarkerTime:    rng.Float64() * 300,
			Strength:      rng.Float64() * 40,
		}
		r.ISDMeasurement(now, m)
		return Rec{Type: RecISD, Now: now, M: m}
	case 9:
		rs := compensator.Resample{
			Stream: compensator.Stream(rng.Intn(2)),
			PPM:    rng.NormFloat64() * 200,
		}
		r.ResampleApplied(now, rs)
		return Rec{Type: RecResample, Now: now, Resample: rs}
	default:
		a := compensator.Action{
			Stream:        compensator.Stream(rng.Intn(2)),
			InsertFrames:  rng.Intn(30),
			SkipFrames:    rng.Intn(30),
			InsertSamples: rng.Intn(960),
			SkipSamples:   rng.Intn(960),
		}
		r.CompensationAction(now, a)
		return Rec{Type: RecAction, Now: now, Action: a}
	}
}

func sameRec(a, b Rec) bool {
	return a.Type == b.Type && a.Now == b.Now && a.Content == b.Content &&
		a.LocalTime == b.LocalTime && a.N == b.N && a.Seq == b.Seq &&
		a.ADCLocal == b.ADCLocal && bytes.Equal(a.Encoded, b.Encoded) &&
		a.Stream == b.Stream && a.ContentOff == b.ContentOff && a.Size == b.Size &&
		a.M == b.M && a.Action == b.Action && a.Resample == b.Resample
}

// TestRoundTrip is the codec property test: random tap sequences must
// decode back to exactly what was recorded, across many seeds.
func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hdr := testHeader()
		hdr.SessionID = uint32(seed)

		var buf bytes.Buffer
		rec, err := NewRecorder(&buf, hdr)
		if err != nil {
			t.Fatalf("seed %d: NewRecorder: %v", seed, err)
		}
		n := 1 + rng.Intn(200)
		want := make([]Rec, n)
		for i := range want {
			want[i] = randomTap(rng, rec)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		if got := rec.Records(); got != int64(n)+1 {
			t.Fatalf("seed %d: Records() = %d, want %d", seed, got, n+1)
		}

		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		first, err := rd.Next()
		if err != nil || first.Type != RecHeader {
			t.Fatalf("seed %d: first record = %v, %v; want header", seed, first, err)
		}
		gotHdr, ok := rd.Header()
		if !ok || gotHdr != hdr {
			t.Fatalf("seed %d: header round trip:\n got %+v\nwant %+v", seed, gotHdr, hdr)
		}
		for i, w := range want {
			g, err := rd.Next()
			if err != nil {
				t.Fatalf("seed %d: record %d: %v", seed, i, err)
			}
			if !sameRec(w, g) {
				t.Fatalf("seed %d: record %d:\n got %s\nwant %s", seed, i, g, w)
			}
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("seed %d: expected clean EOF, got %v", seed, err)
		}
	}
}

// TestRoundTripSpecialFloats checks that NaN and infinities survive the
// bit-level float encoding (NaN != NaN, so compare bit patterns).
func TestRoundTripSpecialFloats(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}
	for _, v := range vals {
		rec.Tick(v)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil { // header
		t.Fatal(err)
	}
	for i, v := range vals {
		g, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if math.Float64bits(g.Now) != math.Float64bits(v) {
			t.Fatalf("record %d: got bits %x, want %x", i, math.Float64bits(g.Now), math.Float64bits(v))
		}
	}
}

// buildValidLog returns a small complete trace for corruption tests.
func buildValidLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		randomTap(rng, rec)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll consumes a log until EOF or error, returning the terminal error.
func readAll(data []byte) error {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := rd.Next(); err != nil {
			return err
		}
	}
}

// TestTruncatedLog truncates a valid log at every possible byte offset:
// every prefix must produce either a clean EOF (truncation at a record
// boundary) or a structured error — never a panic or a hang.
func TestTruncatedLog(t *testing.T) {
	data := buildValidLog(t)
	for cut := 0; cut < len(data); cut++ {
		err := readAll(data[:cut])
		if err == nil {
			t.Fatalf("cut %d: no terminal error", cut)
		}
		if err != io.EOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
	}
	if err := readAll(data); err != io.EOF {
		t.Fatalf("full log: %v", err)
	}
}

// TestCorruptLog flips structural fields and checks for clean errors.
func TestCorruptLog(t *testing.T) {
	valid := buildValidLog(t)

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] ^= 0xff
		if err := readAll(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[8], data[9] = 0xfe, 0xca
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Fatal("version 0xcafe accepted")
		} else if errors.Is(err, ErrCorrupt) {
			t.Fatalf("unsupported version should not be ErrCorrupt: %v", err)
		}
	})
	t.Run("huge record length", func(t *testing.T) {
		data := append([]byte(nil), valid[:10]...)
		data = append(data, byte(RecTick), 0xff, 0xff, 0xff, 0xff) // len ~4G
		if err := readAll(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("payload shorter than fields", func(t *testing.T) {
		// A tick record whose payload is 4 bytes (needs 8).
		data := append([]byte(nil), valid[:10]...)
		data = append(data, byte(RecTick), 4, 0, 0, 0, 1, 2, 3, 4)
		if err := readAll(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty file", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestUnknownRecordSkipped checks forward compatibility: an unknown record
// type between known records is skipped, not an error.
func TestUnknownRecordSkipped(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	rec.Tick(1.5)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Splice an unknown record (type 200, 3-byte payload) before the tick:
	// the header occupies the first record after the 10-byte preamble.
	hdrLen := 10 + 5 + int(uint32(data[11])|uint32(data[12])<<8|uint32(data[13])<<16|uint32(data[14])<<24)
	spliced := append([]byte(nil), data[:hdrLen]...)
	spliced = append(spliced, 200, 3, 0, 0, 0, 0xaa, 0xbb, 0xcc)
	spliced = append(spliced, data[hdrLen:]...)

	rd, err := NewReader(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rd.Next(); err != nil || r.Type != RecHeader {
		t.Fatalf("header: %v %v", r, err)
	}
	r, err := rd.Next()
	if err != nil || r.Type != RecTick || r.Now != 1.5 {
		t.Fatalf("expected tick 1.5 after skipping unknown record, got %v %v", r, err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestProviderProfilesRoundTrip checks the profile container round trip.
func TestProviderProfilesRoundTrip(t *testing.T) {
	want := netsim.Providers()
	var buf bytes.Buffer
	if err := WriteProviderProfiles(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProviderProfiles(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d profiles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("profile %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestRecorderAllocs guards the zero-allocation hot path: steady-state
// tick/event recording must not allocate.
func TestRecorderAllocs(t *testing.T) {
	rec, err := NewRecorder(io.Discard, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	m := estimator.Measurement{ISDSeconds: 0.01, DetectionTime: 1, MarkerTime: 2, Strength: 3}
	fi := serverpipe.FrameInfo{Seq: 9, ContentStart: 960, ContentOff: 4}
	// Warm up the scratch buffer.
	rec.Tick(0.02)
	rec.ISDMeasurement(0.02, m)
	rec.MediaOut(StreamScreen, fi, 100)
	allocs := testing.AllocsPerRun(200, func() {
		rec.Tick(0.02)
		rec.MediaOut(StreamScreen, fi, 100)
		rec.MediaOut(StreamAccessory, fi, 100)
		rec.ISDMeasurement(0.02, m)
	})
	// The bufio.Writer flushes to io.Discard without allocating; allow 1
	// alloc of slack for the occasional flush bookkeeping.
	if allocs > 1 {
		t.Fatalf("recording hot path allocates %.1f times per tick", allocs)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
