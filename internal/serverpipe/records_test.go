package serverpipe

import (
	"fmt"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/gamesynth"
	"ekho/internal/pn"
)

func TestRecordBookLookup(t *testing.T) {
	var b RecordBook
	b.Add(Record{ContentStart: 0, N: 960, LocalTime: 10})
	b.Add(Record{ContentStart: 960, N: 960, LocalTime: 10.02})
	got, ok := b.Lookup(1000)
	want := 10.02 + float64(1000-960)/audio.SampleRate
	if !ok || got != want {
		t.Fatalf("Lookup(1000) = %v,%v want %v,true", got, ok, want)
	}
	if _, ok := b.Lookup(5000); ok {
		t.Fatal("Lookup past coverage should miss")
	}
	if _, ok := b.Lookup(-1); ok {
		t.Fatal("Lookup before coverage should miss")
	}
}

func TestRecordBookOutOfOrderAdd(t *testing.T) {
	var b RecordBook
	b.Add(Record{ContentStart: 1920, N: 960, LocalTime: 3})
	b.Add(Record{ContentStart: 0, N: 960, LocalTime: 1})
	b.Add(Record{ContentStart: 960, N: 960, LocalTime: 2})
	for i, want := range []int64{0, 960, 1920} {
		if b.recs[i].ContentStart != want {
			t.Fatalf("recs[%d].ContentStart = %d want %d", i, b.recs[i].ContentStart, want)
		}
	}
	if got, ok := b.Lookup(960); !ok || got != 2 {
		t.Fatalf("Lookup(960) = %v,%v", got, ok)
	}
}

// TestEvictionProtectsPendingMarkers is the regression test for the hub
// truncation bug: a marker whose covering playback record is delayed (the
// chat packet carrying it arrives hundreds of packets late) must still
// match — eviction may not drop records that cover a pending marker, no
// matter how many newer records have piled up since.
func TestEvictionProtectsPendingMarkers(t *testing.T) {
	var (
		b      RecordBook
		ledger MarkerLedger
		sink   countingTimes
	)
	const markerContent = 10 * 960
	ledger.Add(markerContent)

	// The record covering the marker arrives, followed by far more than
	// RecordHighWater later records before the ledger next resolves
	// (delayed uplink: the chat audio that would resolve it is stuck).
	b.Add(Record{ContentStart: markerContent, N: 960, LocalTime: 42})
	for i := 0; i < RecordHighWater+300; i++ {
		c := int64(markerContent + (i+1)*960)
		b.Add(Record{ContentStart: c, N: 960, LocalTime: 42 + float64(i+1)*0.02})
		b.Evict(ledger.MinPending())
	}
	if b.Len() <= RecordLowWater {
		t.Fatalf("book over-evicted to %d records", b.Len())
	}

	ledger.Resolve(&b, &sink, NopSink{})
	if ledger.Pending() != 0 {
		t.Fatal("marker still pending: covering record was evicted")
	}
	if len(sink.times) != 1 || sink.times[0] != 42 {
		t.Fatalf("marker time %v want [42]", sink.times)
	}

	// With the marker resolved, eviction may now shrink the book.
	b.Evict(ledger.MinPending())
	if b.Len() != RecordLowWater {
		t.Fatalf("post-resolve eviction left %d records, want %d", b.Len(), RecordLowWater)
	}
}

func TestMarkerExpiry(t *testing.T) {
	var (
		b      RecordBook
		ledger MarkerLedger
		sink   countingTimes
		events eventCounter
	)
	// A marker injected into content the accessory skipped: no record will
	// ever cover it. Once playback runs MarkerExpireSlack past it, the
	// ledger must abandon it so the eviction floor is released.
	ledger.Add(1000)
	b.Add(Record{ContentStart: 2000, N: 960, LocalTime: 1})
	ledger.Resolve(&b, &sink, &events)
	if ledger.Pending() != 1 {
		t.Fatal("marker should still be pending within the slack window")
	}
	b.Add(Record{ContentStart: 1000 + MarkerExpireSlack + 1, N: 960, LocalTime: 2})
	ledger.Resolve(&b, &sink, &events)
	if ledger.Pending() != 0 || events.expired != 1 || len(sink.times) != 0 {
		t.Fatalf("pending=%d expired=%d times=%v", ledger.Pending(), events.expired, sink.times)
	}
}

// injectCounter counts the ledger's lifecycle events on a pipeline.
type injectCounter struct {
	eventCounter
	injected int
}

func (e *injectCounter) MarkerInjected(int64) { e.injected++ }

// A controller that sends chat but never a playback record leaves every
// marker unmatched, and MaxCovered never advances to expire them: the
// ledger must still stay bounded, expiring markers MarkerExpireSlack
// behind the newest one, and count every expiry.
func TestRecordlessChatBoundsPendingMarkers(t *testing.T) {
	const seconds = 120
	var sink injectCounter
	p := New(Config{
		Game:  gamesynth.Generate(gamesynth.Catalog()[0], gamesynth.ClipSeconds),
		Seq:   pn.NewSequence(4242, pn.DefaultLength),
		Codec: codec.Lossless,
		Sink:  &sink,
	})
	pkt, err := codec.NewEncoder(codec.Lossless).Encode(make([]float64, audio.FrameSamples))
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]float64, audio.FrameSamples)
	most := 0
	for i := 0; i < seconds*audio.SampleRate/audio.FrameSamples; i++ {
		fi := p.NextScreenFrame(frame)
		p.NextAccessoryFrame(frame)
		p.OfferChat(fi.Seq, float64(fi.Seq)*frameSec, pkt)
		most = max(most, p.PendingMarkers())
	}
	t.Logf("%d markers injected, %d expired, %d pending (at most %d)",
		sink.injected, sink.expired, p.PendingMarkers(), most)
	if most > 11 {
		t.Errorf("%d markers pending at once over %d s of recordless chat, want <= 11", most, seconds)
	}
	if sink.injected < seconds-1 || sink.matched != 0 {
		t.Fatalf("%d markers injected, %d matched: want one a second, none matched", sink.injected, sink.matched)
	}
	if got := sink.injected - p.PendingMarkers(); sink.expired != got {
		t.Errorf("%d expiries counted, want %d (every marker no longer pending)", sink.expired, got)
	}
}

func TestChatSequencer(t *testing.T) {
	q := NewChatSequencer(true)
	if lost, fresh := q.Offer(0); lost != 0 || !fresh {
		t.Fatalf("seq 0: lost=%d fresh=%v", lost, fresh)
	}
	if lost, fresh := q.Offer(3); lost != 2 || !fresh {
		t.Fatalf("seq 3: lost=%d fresh=%v", lost, fresh)
	}
	if _, fresh := q.Offer(2); fresh {
		t.Fatal("reordered packet behind cursor must be stale")
	}
	if lost, fresh := q.Offer(4); lost != 0 || !fresh {
		t.Fatalf("seq 4: lost=%d fresh=%v", lost, fresh)
	}

	mid := NewChatSequencer(false)
	if lost, fresh := mid.Offer(100); lost != 0 || !fresh {
		t.Fatalf("mid-stream join: lost=%d fresh=%v", lost, fresh)
	}
	if lost, _ := mid.Offer(102); lost != 1 {
		t.Fatalf("after join: lost=%d want 1", lost)
	}
}

// countingTimes is a MarkerTimeSink stub.
type countingTimes struct{ times []float64 }

func (c *countingTimes) AddMarkerTime(t float64) { c.times = append(c.times, t) }

// eventCounter counts EventSink callbacks.
type eventCounter struct {
	NopSink
	matched, expired int
}

func (e *eventCounter) MarkerMatched(int64, float64) { e.matched++ }
func (e *eventCounter) MarkerExpired(int64)          { e.expired++ }

// BenchmarkMatchMarkers measures marker↔record resolution against books of
// increasing size: binary-search lookup keeps the per-resolve cost
// logarithmic in the book size (the old linear scan was O(markers·records)
// per chat packet).
func BenchmarkMatchMarkers(b *testing.B) {
	for _, size := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("book%d", size), func(b *testing.B) {
			var book RecordBook
			for i := 0; i < size; i++ {
				book.Add(Record{ContentStart: int64(i * 960), N: 960, LocalTime: float64(i) * 0.02})
			}
			var sink countingTimes
			var ledger MarkerLedger
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Eight in-flight markers spread across the covered range —
				// a generous steady-state pending count.
				for j := 0; j < 8; j++ {
					ledger.Add(int64(j * size * 960 / 8))
				}
				sink.times = sink.times[:0]
				ledger.Resolve(&book, &sink, NopSink{})
				if ledger.Pending() != 0 {
					b.Fatal("unresolved markers")
				}
			}
		})
	}
}
