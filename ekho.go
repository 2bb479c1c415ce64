// Package ekho is a stdlib-only Go implementation of Ekho, the system from
// "Ekho: Synchronizing Cloud Gaming Media Across Multiple Endpoints"
// (SIGCOMM 2023): robust synchronization of a cloud-gaming screen stream
// and accessory stream by embedding human-inaudible pseudo-noise (PN)
// markers in the screen audio, detecting them in the chat audio overheard
// by the player's microphone, and compensating the measured Inter-Stream
// Delay (ISD) at the server.
//
// The package is a facade over the internal subsystems:
//
//   - NewMarkerSequence / NewInjector: PN marker generation and embedding
//     with the Eq. 2 amplitude tracker (markers stay below audibility).
//   - NewEstimator: the Eq. 3-7 detection pipeline plus §4.3 timestamp
//     matching, in both one-shot (EstimateISD) and streaming (Estimator)
//     forms.
//   - NewCompensator: the §4.4/§5.1 feedback loop producing frame
//     insert/skip actions with hysteresis and settling.
//   - RunSession: the full simulated end-to-end system of §6.1 (server,
//     two devices, lossy links, jitter buffers, acoustic overhearing).
//
// Quickstart:
//
//	seq := ekho.NewMarkerSequence(42)
//	marked, schedule := ekho.AddMarkers(gameAudio, seq, ekho.DefaultMarkerVolume)
//	// ... play `marked` on the screen; record `chat` at the headset;
//	// collect the accessory playback time of each schedule entry ...
//	isds := ekho.EstimateISD(chat, chatStartTime, markerPlaybackTimes, seq)
//
// See the examples/ directory for runnable programs and DESIGN.md for how
// each paper experiment maps onto the implementation.
package ekho

import (
	"io"

	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/estimator"
	"ekho/internal/netsim"
	"ekho/internal/pn"
	"ekho/internal/serverpipe"
	"ekho/internal/session"
	"ekho/internal/trace"
)

// Audio and marker constants re-exported from the paper's configuration.
const (
	// SampleRate is the canonical stream rate (48 kHz).
	SampleRate = audio.SampleRate
	// FrameSamples is one 20 ms packet (960 samples).
	FrameSamples = audio.FrameSamples
	// MarkerLength is L, the PN sequence length (1 s).
	MarkerLength = audio.MarkerLength
	// DefaultMarkerVolume is C = 0.5, the paper's chosen marker volume
	// (inaudible yet reliably detectable, §6.2-§6.3).
	DefaultMarkerVolume = pn.DefaultC
	// HumanEchoThresholdSec is the 10 ms synchronization target (§3.1).
	HumanEchoThresholdSec = 0.010
)

// Buffer is a mono PCM audio buffer (float64 samples at a fixed rate).
type Buffer = audio.Buffer

// NewBuffer allocates a silent buffer.
func NewBuffer(rate, samples int) *Buffer { return audio.NewBuffer(rate, samples) }

// FromSamples wraps a sample slice as a Buffer without copying.
func FromSamples(rate int, s []float64) *Buffer { return audio.FromSamples(rate, s) }

// MarkerSequence is a reusable band-limited PN marker template shared by
// the injector (server) and estimator.
type MarkerSequence = pn.Sequence

// NewMarkerSequence generates the canonical 1 s, 6-12 kHz PN sequence for
// a seed. Server and estimator must use the same seed.
func NewMarkerSequence(seed int64) *MarkerSequence {
	return pn.NewSequence(seed, pn.DefaultLength)
}

// Injection records where a marker was embedded.
type Injection = pn.Injection

// Injector embeds markers frame by frame into a live stream.
type Injector = pn.Injector

// NewInjector returns a streaming marker injector with relative volume c.
func NewInjector(seq *MarkerSequence, c float64) *Injector { return pn.NewInjector(seq, c) }

// AddMarkers embeds periodic PN markers into a copy of the screen audio,
// returning the marked audio and the injection log (one entry per marker).
func AddMarkers(b *Buffer, seq *MarkerSequence, c float64) (*Buffer, []Injection) {
	return pn.Mark(b, seq, c)
}

// AddConstantMarkers produces the §6.5 muted-screen stream: silence with
// PN markers at a constant amplitude (dB above the internal floor).
func AddConstantMarkers(samples int, seq *MarkerSequence, amplitudeDB float64) (*Buffer, []Injection) {
	return pn.ConstantMark(samples, seq, amplitudeDB)
}

// Detection is a confirmed marker found in a recording.
type Detection = estimator.Detection

// Measurement is one ISD estimate.
type Measurement = estimator.Measurement

// EstimatorConfig tunes the detection pipeline; the zero value uses the
// paper's parameters (S=100 ms, β=0.99995, θ=5, δ=100, L=1 s).
type EstimatorConfig = estimator.Config

// DetectMarkers runs the Eq. 3-7 pipeline over a recording.
func DetectMarkers(rec *Buffer, seq *MarkerSequence) []Detection {
	return estimator.DetectMarkers(rec.Samples, estimator.Config{Seq: seq})
}

// EstimateISD detects markers in a recording and matches them against the
// accessory stream's marker playback times (all in the device's local
// clock), returning one measurement per matched marker. recStartLocal is
// the local capture time of the recording's first sample.
func EstimateISD(rec *Buffer, recStartLocal float64, markerLocalTimes []float64, seq *MarkerSequence) []Measurement {
	return estimator.Estimate(rec, recStartLocal, markerLocalTimes, estimator.Config{Seq: seq})
}

// Estimator is the streaming form used by a live server: feed chat audio
// and marker times as they arrive; measurements are emitted once per
// detected marker.
type Estimator = estimator.Streamer

// NewEstimator returns a streaming estimator for the sequence.
func NewEstimator(seq *MarkerSequence) *Estimator {
	return estimator.NewStreamer(estimator.Config{Seq: seq})
}

// Compensation types re-exported for the feedback loop.
type (
	// Compensator turns measurements into corrective actions.
	Compensator = compensator.Compensator
	// CompensatorConfig tunes hysteresis and settling.
	CompensatorConfig = compensator.Config
	// Action is a frame insert/skip command for one stream.
	Action = compensator.Action
	// Resample is the drift regime's continuous rate-retune action.
	Resample = compensator.Resample
)

// Stream identifiers for compensation actions.
const (
	ScreenStream    = compensator.ScreenStream
	AccessoryStream = compensator.AccessoryStream
)

// NewCompensator returns a compensator; the zero config uses the paper's
// 5 ms hysteresis and a 6 s settling window.
func NewCompensator(cfg CompensatorConfig) *Compensator { return compensator.New(cfg) }

// Session types re-exported for end-to-end simulation.
type (
	// SessionScenario configures a simulated end-to-end run.
	SessionScenario = session.Scenario
	// SessionResult carries the ISD trace, measurements and actions.
	SessionResult = session.Result
	// ISDPoint is one ground-truth ISD observation.
	ISDPoint = session.ISDPoint
	// ScriptedLoss forces a deterministic loss event.
	ScriptedLoss = session.ScriptedLoss
)

// Haptics types re-exported for controller rumble synchronization.
type (
	// HapticEvent is one rumble command anchored to game content.
	HapticEvent = session.HapticEvent
	// HapticRecord reports a fired rumble and its skew to the screen.
	HapticRecord = session.HapticRecord
)

// Session stream identifiers for scripted loss events.
const (
	SessionScreen    = session.Screen
	SessionAccessory = session.Accessory
)

// DefaultSessionScenario mirrors the paper's testbed (screen on cellular,
// controller on WiFi).
func DefaultSessionScenario() SessionScenario { return session.DefaultScenario() }

// RunSession executes a simulated end-to-end session.
func RunSession(sc SessionScenario) *SessionResult { return session.Run(sc) }

// Multi-endpoint types re-exported: N screen devices synchronized against
// one accessory stream using per-screen PN seeds (see
// internal/session/multi.go for the align-to-slowest policy).
type (
	// MultiScenario configures an N-screen simulated session.
	MultiScenario = session.MultiScenario
	// ScreenSpec describes one screen endpoint in a MultiScenario.
	ScreenSpec = session.ScreenSpec
	// MultiResult carries per-screen ISD traces and joint actions.
	MultiResult = session.MultiResult
)

// DefaultMultiScenario returns a two-screen setup (cellular TV + WiFi PC).
func DefaultMultiScenario() MultiScenario { return session.DefaultMultiScenario() }

// RunMultiSession executes a simulated N-screen session.
func RunMultiSession(sc MultiScenario) *MultiResult { return session.RunMulti(sc) }

// Server pipeline re-exports: the transport-agnostic per-session server
// core (streams, marker ledger, record matching, chat sequencing,
// estimation, compensation) that every hosting layer — the multi-tenant
// hub, the discrete-event simulator, the experiments harness — drives.
// Embed ServerNopSink to observe only the events of interest.
type (
	// ServerPipeline is one session's server core.
	ServerPipeline = serverpipe.Pipeline
	// ServerPipelineConfig assembles a pipeline (Game and Seq required).
	ServerPipelineConfig = serverpipe.Config
	// ServerFrameInfo describes one produced downlink frame.
	ServerFrameInfo = serverpipe.FrameInfo
	// ServerPlaybackRecord reports when accessory content played locally.
	ServerPlaybackRecord = serverpipe.Record
	// ServerEventSink receives pipeline lifecycle events.
	ServerEventSink = serverpipe.EventSink
	// ServerNopSink ignores all events; embed it for partial sinks.
	ServerNopSink = serverpipe.NopSink
)

// NewServerPipeline assembles a per-session server pipeline.
func NewServerPipeline(cfg ServerPipelineConfig) *ServerPipeline { return serverpipe.New(cfg) }

// Capture/replay re-exports: record a live session's pipeline timeline to
// a versioned binary trace, replay it deterministically, and verify the
// replayed ISD/compensation sequences bit for bit (cmd/ekho-replay is the
// CLI over the same API).
type (
	// TraceHeader reconstructs a recorded session's pipeline configuration.
	TraceHeader = trace.Header
	// TraceRecorder captures a session timeline (serverpipe.EventSink plus
	// input/output taps).
	TraceRecorder = trace.Recorder
	// ReplayReport summarizes one deterministic replay.
	ReplayReport = trace.ReplayReport
	// SessionStat is the stable one-line-per-session status format shared
	// by the live server's SIGHUP dump and the replayer's final report.
	SessionStat = trace.SessionStat
)

// NewTraceRecorder starts recording a session to w.
func NewTraceRecorder(w io.Writer, h TraceHeader) (*TraceRecorder, error) {
	return trace.NewRecorder(w, h)
}

// TraceHeaderFor captures a session's effective pipeline configuration.
func TraceHeaderFor(sessionID uint32, clipIndex int, seed int64, cfg ServerPipelineConfig) TraceHeader {
	return trace.HeaderFor(sessionID, clipIndex, seed, cfg)
}

// ReplayTrace re-drives a fresh pipeline from a recorded trace and
// verifies every recorded output exactly.
func ReplayTrace(r io.Reader) (*ReplayReport, error) { return trace.Replay(r) }

// Provider network profile re-exports: named delay/jitter/loss shapes
// modeled on the Stadia / GeForce Now / PlayStation Now measurement study
// (arXiv:2012.06774), selectable by name in simulator scenarios.
type (
	// ProviderProfile is a named bidirectional path shape.
	ProviderProfile = netsim.ProviderProfile
)

// Providers returns the built-in provider profiles in a stable order.
func Providers() []ProviderProfile { return netsim.Providers() }

// ProviderByName resolves a provider profile by name or alias.
func ProviderByName(name string) (ProviderProfile, bool) { return netsim.ProviderByName(name) }
