package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/serverpipe"
)

// Recorder captures one session's timeline. It implements
// serverpipe.EventSink for the pipeline's lifecycle events; the host
// additionally taps its inputs (Tick, OfferRecord, OfferChat) and its
// outbound packets (MediaOut) at the points it drives the pipeline, in
// the same order. All calls must come from the goroutine that owns the
// pipeline (the hub's shard worker, the simulator's event loop) — the
// recorder is deliberately lock-free.
//
// The encode path is allocation-free in steady state: records are built
// in a reusable scratch buffer and handed to an internal bufio.Writer, so
// recording rides the hot per-frame path without disturbing the
// zero-alloc discipline of the pipeline itself.
type Recorder struct {
	w       *bufio.Writer
	scratch []byte
	err     error
	records int64
}

// NewRecorder writes the container preamble and the session header.
// Closing the recorder flushes buffered records; the caller owns closing
// the underlying writer.
func NewRecorder(w io.Writer, h Header) (*Recorder, error) {
	r := &Recorder{w: bufio.NewWriterSize(w, 1<<16)}
	var pre [10]byte
	copy(pre[:8], magic[:])
	pre[8] = Version & 0xff
	pre[9] = Version >> 8
	if _, err := r.w.Write(pre[:]); err != nil {
		return nil, err
	}
	r.emit(RecHeader, appendHeader(r.begin(), h))
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// begin resets the scratch buffer, leaving room for the record prefix.
func (r *Recorder) begin() []byte {
	if cap(r.scratch) < 5 {
		r.scratch = make([]byte, 5, 256)
	}
	return r.scratch[:5]
}

// emit finalizes the prefix ([type][len]) and writes the record.
func (r *Recorder) emit(t RecType, b []byte) {
	r.scratch = b // retain grown capacity
	if r.err != nil {
		return
	}
	b[0] = byte(t)
	n := uint32(len(b) - 5)
	b[1] = byte(n)
	b[2] = byte(n >> 8)
	b[3] = byte(n >> 16)
	b[4] = byte(n >> 24)
	if _, err := r.w.Write(b); err != nil {
		r.err = err
		return
	}
	r.records++
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

// Records reports how many records have been written (header included).
func (r *Recorder) Records() int64 { return r.records }

// Close flushes buffered records. The recorder must not be used after.
func (r *Recorder) Close() error {
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Tick records one media tick (one screen + one accessory frame are about
// to be produced) at the pipeline's current content time.
func (r *Recorder) Tick(now float64) {
	r.emit(RecTick, appendF64(r.begin(), now))
}

// OfferRecord records one inbound accessory playback record, just before
// it is offered to the pipeline.
func (r *Recorder) OfferRecord(now float64, rec serverpipe.Record) {
	b := appendF64(r.begin(), now)
	b = appendU64(b, uint64(rec.ContentStart))
	b = appendU32(b, uint32(int32(rec.N)))
	b = appendF64(b, rec.LocalTime)
	r.emit(RecRecord, b)
}

// OfferChat records one inbound chat packet (sequence number, capture
// timestamp and the encoded payload), just before it is offered to the
// pipeline.
func (r *Recorder) OfferChat(now float64, seq uint32, adcLocal float64, encoded []byte) {
	b := appendF64(r.begin(), now)
	b = appendU32(b, seq)
	b = appendF64(b, adcLocal)
	b = appendU32(b, uint32(len(encoded)))
	b = append(b, encoded...)
	r.emit(RecChat, b)
}

// MediaOut records one outbound media packet's metadata: which stream,
// the frame's sequence number and content bookkeeping, and the serialized
// datagram size.
func (r *Recorder) MediaOut(stream uint8, fi serverpipe.FrameInfo, size int) {
	b := appendU32(r.begin(), uint32(stream))
	b = appendU32(b, fi.Seq)
	b = appendU64(b, uint64(fi.ContentStart))
	b = appendU32(b, uint32(int32(fi.ContentOff)))
	b = appendU32(b, uint32(int32(size)))
	r.emit(RecMediaOut, b)
}

// MarkerInjected implements serverpipe.EventSink.
func (r *Recorder) MarkerInjected(content int64) {
	r.emit(RecMarkerInjected, appendU64(r.begin(), uint64(content)))
}

// MarkerMatched implements serverpipe.EventSink.
func (r *Recorder) MarkerMatched(content int64, localTime float64) {
	b := appendU64(r.begin(), uint64(content))
	b = appendF64(b, localTime)
	r.emit(RecMarkerMatched, b)
}

// MarkerExpired implements serverpipe.EventSink.
func (r *Recorder) MarkerExpired(content int64) {
	r.emit(RecMarkerExpired, appendU64(r.begin(), uint64(content)))
}

// ChatGapConcealed implements serverpipe.EventSink.
func (r *Recorder) ChatGapConcealed(seq uint32, startLocal float64) {
	b := appendU32(r.begin(), seq)
	b = appendF64(b, startLocal)
	r.emit(RecChatConcealed, b)
}

// ChatResync implements serverpipe.EventSink. It writes nothing: a
// resync is a pure function of the recorded chat sequence numbers, so
// replay re-derives it from the RecChat inputs.
func (r *Recorder) ChatResync(uint32, int) {}

// ISDMeasurement implements serverpipe.EventSink.
func (r *Recorder) ISDMeasurement(now float64, m estimator.Measurement) {
	b := appendF64(r.begin(), now)
	b = appendF64(b, m.ISDSeconds)
	b = appendF64(b, m.DetectionTime)
	b = appendF64(b, m.MarkerTime)
	b = appendF64(b, m.Strength)
	r.emit(RecISD, b)
}

// CompensationAction implements serverpipe.EventSink.
func (r *Recorder) CompensationAction(now float64, a compensator.Action) {
	b := appendF64(r.begin(), now)
	b = appendU32(b, uint32(int32(a.Stream)))
	b = appendU32(b, uint32(int32(a.InsertFrames)))
	b = appendU32(b, uint32(int32(a.SkipFrames)))
	b = appendU32(b, uint32(int32(a.InsertSamples)))
	b = appendU32(b, uint32(int32(a.SkipSamples)))
	r.emit(RecAction, b)
}

// ResampleApplied implements serverpipe.EventSink.
func (r *Recorder) ResampleApplied(now float64, rs compensator.Resample) {
	b := appendF64(r.begin(), now)
	b = appendU32(b, uint32(int32(rs.Stream)))
	b = appendF64(b, rs.PPM)
	r.emit(RecResample, b)
}

// SessionStat is the stable per-session status line shared by every
// surface that reports on a session — the live server's SIGHUP dump, the
// replayer's final report, tests. One line per session, fixed field
// order; the format is documented in the README and must only ever grow
// at the tail.
type SessionStat struct {
	// ID is the wire session identifier.
	ID uint32
	// Frames counts produced media frame pairs.
	Frames int
	// Measurements / Actions count estimator outputs and compensator
	// corrections.
	Measurements int
	Actions      int
	// Pending / Records are the marker-ledger and record-book sizes.
	Pending int
	Records int
	// Resamples counts drift-regime rate retunes (tail growth: 0 for
	// every session without the drift regime).
	Resamples int
}

// String renders the stable one-line format:
//
//	session <id> frames=<n> measurements=<n> actions=<n> pending=<n> records=<n> resamples=<n>
func (s SessionStat) String() string {
	return fmt.Sprintf("session %d frames=%d measurements=%d actions=%d pending=%d records=%d resamples=%d",
		s.ID, s.Frames, s.Measurements, s.Actions, s.Pending, s.Records, s.Resamples)
}

// SortSessionStats orders stats by session ID so multi-session dumps are
// deterministic.
func SortSessionStats(ss []SessionStat) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
}
