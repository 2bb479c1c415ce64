package serverpipe

import (
	"ekho/internal/compensator"
	"ekho/internal/estimator"
)

// EventSink receives the pipeline's lifecycle events — the uniform
// instrumentation seam every consumer (hub, simulator, experiments,
// future metrics/tracing) hooks into. Implementations must be cheap:
// events fire on the per-frame hot path. Embed NopSink to implement only
// the events of interest.
type EventSink interface {
	// MarkerInjected fires when a PN marker starts in the screen stream
	// at the given content position.
	MarkerInjected(content int64)
	// MarkerMatched fires when a pending marker's content was found in an
	// accessory playback record, yielding its local playback time.
	MarkerMatched(content int64, localTime float64)
	// MarkerExpired fires when a pending marker is abandoned because
	// accessory playback ran MarkerExpireSlack past its content (the
	// content was skipped and will never play).
	MarkerExpired(content int64)
	// ChatGapConcealed fires once per uplink packet concealed to keep the
	// chat timeline contiguous: a lost packet, or one that arrived but
	// failed to decode.
	ChatGapConcealed(seq uint32, startLocal float64)
	// ChatResync fires when an uplink gap of lost packets is too long to
	// conceal: the estimator's timeline restarts at packet seq, and audio
	// and marker times buffered before the gap are discarded.
	ChatResync(seq uint32, lost int)
	// ISDMeasurement fires for every finalized estimator measurement.
	ISDMeasurement(now float64, m estimator.Measurement)
	// CompensationAction fires when the compensator issues a correction
	// (the pipeline has already routed it to the owning stream).
	CompensationAction(now float64, a compensator.Action)
	// ResampleApplied fires when the drift regime retunes a stream's
	// content-consumption rate (the pipeline has already applied it).
	// Never fires unless Config.Drift.Enabled.
	ResampleApplied(now float64, r compensator.Resample)
}

// NopSink is an EventSink that ignores everything; embed it to implement
// a subset of the interface.
type NopSink struct{}

// MarkerInjected implements EventSink.
func (NopSink) MarkerInjected(int64) {}

// MarkerMatched implements EventSink.
func (NopSink) MarkerMatched(int64, float64) {}

// MarkerExpired implements EventSink.
func (NopSink) MarkerExpired(int64) {}

// ChatGapConcealed implements EventSink.
func (NopSink) ChatGapConcealed(uint32, float64) {}

// ChatResync implements EventSink.
func (NopSink) ChatResync(uint32, int) {}

// ISDMeasurement implements EventSink.
func (NopSink) ISDMeasurement(float64, estimator.Measurement) {}

// CompensationAction implements EventSink.
func (NopSink) CompensationAction(float64, compensator.Action) {}

// ResampleApplied implements EventSink.
func (NopSink) ResampleApplied(float64, compensator.Resample) {}
