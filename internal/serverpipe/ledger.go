package serverpipe

import (
	"math"

	"ekho/internal/audio"
)

// MarkerTimeSink receives resolved accessory-local marker playback times.
// estimator.Streamer implements it; benchmarks and tests can substitute a
// counting stub.
type MarkerTimeSink interface {
	AddMarkerTime(localTime float64)
}

// MarkerExpireSlack is how far (in content samples) accessory playback,
// or the screen's marker injection, may run past a pending marker's
// content before the marker is abandoned. Ten seconds is far beyond any
// plausible uplink reorder, so expiry only removes markers that can never
// match — content the accessory skipped over, whose playback record will
// never exist, or markers of a session whose controller sends no records
// at all. Without expiry such markers would pin the record book's
// eviction floor, and fill the ledger, forever.
const MarkerExpireSlack = 10 * audio.SampleRate

// ledgerCap is the pending list's capacity, allocated on the first Add:
// expiry behind the newest marker bounds the list to the markers of
// MarkerExpireSlack of content, eleven at one marker a second.
const ledgerCap = 16

// MarkerLedger tracks injected markers awaiting a covering playback
// record. Content positions are appended in increasing order (the screen
// stream's content position is monotonic).
type MarkerLedger struct {
	pending []int64
	newest  int64 // content of the newest marker added
}

// Add registers a marker injected at the given content position.
func (l *MarkerLedger) Add(content int64) {
	if l.pending == nil {
		l.pending = make([]int64, 0, ledgerCap)
	}
	l.pending = append(l.pending, content)
	l.newest = content
}

// Pending reports how many markers await resolution.
func (l *MarkerLedger) Pending() int { return len(l.pending) }

// MinPending returns the lowest pending marker content, or math.MaxInt64
// when nothing is pending (the record book's eviction floor).
func (l *MarkerLedger) MinPending() int64 {
	if len(l.pending) == 0 {
		return math.MaxInt64
	}
	return l.pending[0]
}

// Resolve matches pending markers against the record book: matched
// markers emit their accessory-local playback time to the sink; markers
// whose content lies more than MarkerExpireSlack behind the newest covered
// record, or behind the newest marker added, are expired. The second
// bound holds when no record ever arrives. Both paths filter the pending
// list in place (no allocation in steady state).
func (l *MarkerLedger) Resolve(book *RecordBook, times MarkerTimeSink, sink EventSink) {
	if len(l.pending) == 0 {
		return
	}
	remaining := l.pending[:0]
	for _, mc := range l.pending {
		if t, ok := book.Lookup(mc); ok {
			times.AddMarkerTime(t)
			sink.MarkerMatched(mc, t)
			continue
		}
		if book.MaxCovered() > mc+MarkerExpireSlack || l.newest > mc+MarkerExpireSlack {
			sink.MarkerExpired(mc)
			continue
		}
		remaining = append(remaining, mc)
	}
	l.pending = remaining
}
