package serverpipe

import (
	"math"
	"sort"

	"ekho/internal/audio"
)

// Record reports that accessory content [ContentStart, ContentStart+N)
// started playing at the given accessory-local time (seconds). Records
// for distinct packets cover disjoint content ranges: the accessory plays
// each unlooped content position at most once (skips drop content, they
// never replay it).
type Record struct {
	ContentStart int64
	N            int
	LocalTime    float64
}

// Record retention bounds. Eviction triggers when the book exceeds the
// high-water mark and drops the oldest records down to the low-water
// mark — except records that may still cover a pending marker, which are
// always retained (a delayed chat packet must still be able to resolve
// an old marker; see MarkerLedger for the expiry that keeps this bounded).
const (
	RecordHighWater = 400
	RecordLowWater  = 200
)

// recordBookCap is the capacity a book allocates on first use, so it
// never regrows in a session: the high-water mark or the ~500 frame
// records a marker can pin until it expires (MarkerExpireSlack),
// whichever is more, plus a chat packet's batch of new ones.
const recordBookCap = max(RecordHighWater, MarkerExpireSlack/audio.FrameSamples) + 12

// RecordBook holds playback records sorted by ContentStart so marker
// matching is a binary search instead of a linear scan. Appends are O(1)
// for in-order arrival (the common case) and binary-insert for delayed
// packets. All mutation is in place, in storage allocated at the first
// Add and sized past the retention bound.
type RecordBook struct {
	recs   []Record
	maxEnd int64 // highest ContentStart+N ever added (survives eviction)
}

// Add inserts one record, keeping the book sorted by ContentStart.
func (b *RecordBook) Add(r Record) {
	if end := r.ContentStart + int64(r.N); end > b.maxEnd {
		b.maxEnd = end
	}
	if b.recs == nil {
		b.recs = make([]Record, 0, recordBookCap)
	}
	n := len(b.recs)
	if n == 0 || b.recs[n-1].ContentStart <= r.ContentStart {
		b.recs = append(b.recs, r)
		return
	}
	i := sort.Search(n, func(j int) bool { return b.recs[j].ContentStart > r.ContentStart })
	b.recs = append(b.recs, Record{})
	copy(b.recs[i+1:], b.recs[i:])
	b.recs[i] = r
}

// Len reports the number of retained records.
func (b *RecordBook) Len() int { return len(b.recs) }

// MaxCovered returns the highest content position any record has ever
// covered (exclusive); it keeps advancing even after eviction, so marker
// expiry can tell "record not yet arrived" from "record long gone".
func (b *RecordBook) MaxCovered() int64 { return b.maxEnd }

// Lookup resolves a content position to the accessory-local time it
// played. Because record ranges are disjoint, at most one record covers
// the position; binary search finds it in O(log n).
func (b *RecordBook) Lookup(content int64) (float64, bool) {
	i := sort.Search(len(b.recs), func(j int) bool { return b.recs[j].ContentStart > content })
	if i == 0 {
		return 0, false
	}
	r := b.recs[i-1]
	if content >= r.ContentStart+int64(r.N) {
		return 0, false
	}
	return r.LocalTime + float64(content-r.ContentStart)/audio.SampleRate, true
}

// Evict bounds the book: when it exceeds RecordHighWater, the oldest
// records are dropped down to RecordLowWater — but never a record that
// could still cover a pending marker at or beyond minPending (pass
// math.MaxInt64 when nothing is pending).
func (b *RecordBook) Evict(minPending int64) {
	if len(b.recs) <= RecordHighWater {
		return
	}
	drop := 0
	for len(b.recs)-drop > RecordLowWater {
		r := b.recs[drop]
		if minPending != math.MaxInt64 && r.ContentStart+int64(r.N) > minPending {
			break // still (potentially) covers a pending marker
		}
		drop++
	}
	if drop > 0 {
		n := copy(b.recs, b.recs[drop:])
		b.recs = b.recs[:n]
	}
}
