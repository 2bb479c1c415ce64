package trace

import (
	"fmt"
	"io"
	"time"

	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/serverpipe"
)

// Divergence reports one point where the replayed pipeline's behavior
// departed from the recording.
type Divergence struct {
	// Index is the record's ordinal position in the log.
	Index int64
	// Want is the recorded event; Got is what the replay produced ("" when
	// the replay produced nothing / an extra event respectively).
	Want string
	Got  string
}

func (d Divergence) String() string {
	switch {
	case d.Got == "":
		return fmt.Sprintf("#%d: recorded %q, replay produced nothing", d.Index, d.Want)
	case d.Want == "":
		return fmt.Sprintf("#%d: replay produced extra %q", d.Index, d.Got)
	}
	return fmt.Sprintf("#%d: recorded %q, replay produced %q", d.Index, d.Want, d.Got)
}

// MaxDivergences bounds how many divergences a report retains; past the
// bound the replay keeps counting but stops storing.
const MaxDivergences = 64

// ReplayReport summarizes one replay run.
type ReplayReport struct {
	// Header is the recorded session's reconstructed configuration.
	Header Header
	// Ticks / Chats / PlaybackRecords count the inputs re-applied.
	Ticks           int
	Chats           int
	PlaybackRecords int
	// Events counts the recorded output events verified (marker
	// injections/matches/expiries, chat conceals, ISD measurements,
	// compensation actions).
	Events int
	// MediaOut counts outbound-packet records checked against the
	// replayed streams' frame bookkeeping.
	MediaOut int
	// ISDs / Actions / Resamples are the replayed measurement, action and
	// rate-retune sequences (the bit-identical artifacts the equivalence
	// tests compare).
	ISDs      []float64
	Actions   []compensator.Action
	Resamples []compensator.Resample
	// DivergenceCount is the total number of mismatches; Divergences
	// stores the first MaxDivergences of them.
	DivergenceCount int64
	Divergences     []Divergence
	// Final is the replayed pipeline's closing status in the stable
	// per-session line format.
	Final SessionStat
	// Elapsed is the replay wall time; Records is the total records read.
	Elapsed time.Duration
	Records int64
}

// OK reports whether the replay reproduced the recording exactly.
func (r *ReplayReport) OK() bool { return r.DivergenceCount == 0 }

// EventsPerSec is the verified-event replay throughput.
func (r *ReplayReport) EventsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Records) / r.Elapsed.Seconds()
}

// replaySink captures the events the replayed pipeline emits so the
// replayer can match them against the recorded ones.
type replaySink struct {
	queue []Rec
}

func (s *replaySink) push(r Rec) { s.queue = append(s.queue, r) }

func (s *replaySink) MarkerInjected(content int64) {
	s.push(Rec{Type: RecMarkerInjected, Content: content})
}
func (s *replaySink) MarkerMatched(content int64, localTime float64) {
	s.push(Rec{Type: RecMarkerMatched, Content: content, LocalTime: localTime})
}
func (s *replaySink) MarkerExpired(content int64) {
	s.push(Rec{Type: RecMarkerExpired, Content: content})
}
func (s *replaySink) ChatGapConcealed(seq uint32, startLocal float64) {
	s.push(Rec{Type: RecChatConcealed, Seq: seq, LocalTime: startLocal})
}
func (s *replaySink) ChatResync(uint32, int) {} // untraced: see Recorder.ChatResync
func (s *replaySink) ISDMeasurement(now float64, m estimator.Measurement) {
	s.push(Rec{Type: RecISD, Now: now, M: m})
}
func (s *replaySink) CompensationAction(now float64, a compensator.Action) {
	s.push(Rec{Type: RecAction, Now: now, Action: a})
}
func (s *replaySink) ResampleApplied(now float64, r compensator.Resample) {
	s.push(Rec{Type: RecResample, Now: now, Resample: r})
}

// sameEvent compares a recorded event with a replayed one bit for bit
// (float fields must be exactly equal: replay runs the same code on the
// same inputs, so any difference is a real divergence).
func sameEvent(want, got Rec) bool {
	if want.Type != got.Type {
		return false
	}
	switch want.Type {
	case RecMarkerInjected, RecMarkerExpired:
		return want.Content == got.Content
	case RecMarkerMatched:
		return want.Content == got.Content && want.LocalTime == got.LocalTime
	case RecChatConcealed:
		return want.Seq == got.Seq && want.LocalTime == got.LocalTime
	case RecISD:
		return want.Now == got.Now && want.M == got.M
	case RecAction:
		return want.Now == got.Now && want.Action == got.Action
	case RecResample:
		return want.Now == got.Now && want.Resample == got.Resample
	}
	return false
}

// Replay re-drives a fresh pipeline from a recorded session trace and
// verifies that every recorded output — marker lifecycle events, ISD
// measurements, compensation actions, and the outbound frames' content
// bookkeeping — is reproduced exactly. It returns a report rather than an
// error for divergences; an error means the log itself was unreadable, or
// (ErrUnsupportedDetector) was recorded under a detector this build no
// longer has.
func Replay(r io.Reader) (*ReplayReport, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &ReplayReport{}

	// The first record must be the session header.
	first, err := rd.Next()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if first.Type != RecHeader {
		return nil, fmt.Errorf("%w: log does not start with a session header (got %s)", ErrCorrupt, first)
	}
	hdr, _ := rd.Header()
	if hdr.Detector != DetectorCoarseFine {
		return nil, ErrUnsupportedDetector
	}
	rep.Header = hdr

	// Rebuild the pipeline exactly as recorded, with the recorded content
	// clock: every input record carries the Now the live session saw, and
	// events fired while applying an input read that same value.
	now := 0.0
	sink := &replaySink{}
	cfg := hdr.PipelineConfig()
	cfg.Now = func() float64 { return now }
	cfg.Sink = sink
	pipe := serverpipe.New(cfg)

	frame := make([]float64, audio.FrameSamples)
	chatBuf := make([]byte, 0, 4096)
	var lastScreen, lastAccessory serverpipe.FrameInfo
	var index int64 // current record ordinal (header = 0)

	diverge := func(want, got string) {
		rep.DivergenceCount++
		if len(rep.Divergences) < MaxDivergences {
			rep.Divergences = append(rep.Divergences, Divergence{Index: index, Want: want, Got: got})
		}
	}
	// drainExtra flags replayed events the recording does not contain.
	drainExtra := func() {
		for _, g := range sink.queue {
			diverge("", g.String())
		}
		sink.queue = sink.queue[:0]
	}

	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		index++
		switch {
		case rec.IsInput():
			// Any replay events not consumed by recorded event records
			// before the next input are extras the live run never saw.
			drainExtra()
			now = rec.Now
			switch rec.Type {
			case RecTick:
				lastScreen = pipe.NextScreenFrame(frame)
				lastAccessory = pipe.NextAccessoryFrame(frame)
				rep.Ticks++
			case RecRecord:
				pipe.OfferRecord(serverpipe.Record{
					ContentStart: rec.Content,
					N:            rec.N,
					LocalTime:    rec.LocalTime,
				})
				rep.PlaybackRecords++
			case RecChat:
				// rec.Encoded aliases the reader's scratch; OfferChat may
				// retain nothing, but copy defensively for clarity.
				chatBuf = append(chatBuf[:0], rec.Encoded...)
				pipe.OfferChat(rec.Seq, rec.ADCLocal, chatBuf)
				rep.Chats++
			}
		case rec.IsEvent():
			rep.Events++
			if rec.Type == RecISD {
				rep.ISDs = append(rep.ISDs, rec.M.ISDSeconds)
			}
			if rec.Type == RecAction {
				rep.Actions = append(rep.Actions, rec.Action)
			}
			if rec.Type == RecResample {
				rep.Resamples = append(rep.Resamples, rec.Resample)
			}
			if len(sink.queue) == 0 {
				diverge(rec.String(), "")
				continue
			}
			got := sink.queue[0]
			sink.queue = sink.queue[1:]
			if !sameEvent(rec, got) {
				diverge(rec.String(), got.String())
			}
		case rec.Type == RecMediaOut:
			rep.MediaOut++
			fi := lastScreen
			if rec.Stream == StreamAccessory {
				fi = lastAccessory
			}
			// Size is informational (host wire encoding); the frame's
			// sequencing and content bookkeeping must match exactly.
			if rec.Seq != fi.Seq || rec.Content != fi.ContentStart || rec.ContentOff != fi.ContentOff {
				diverge(rec.String(), fmt.Sprintf("media stream=%d seq=%d content=%d off=%d",
					rec.Stream, fi.Seq, fi.ContentStart, fi.ContentOff))
			}
		case rec.Type == RecHeader:
			return nil, fmt.Errorf("%w: duplicate session header at record %d", ErrCorrupt, index)
		default:
			// RecProfile and future informational records: ignore.
		}
	}
	drainExtra()

	rep.Records = index + 1
	rep.Final = SessionStat{
		ID:           hdr.SessionID,
		Frames:       rep.Ticks,
		Measurements: len(rep.ISDs),
		Actions:      len(rep.Actions),
		Pending:      pipe.PendingMarkers(),
		Records:      pipe.RecordCount(),
		Resamples:    len(rep.Resamples),
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
