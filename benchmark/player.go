package main

import (
	"math"

	"ekho/internal/audio"
	"ekho/internal/codec"
	"ekho/internal/jitterbuf"
	"ekho/internal/transport"
)

// Stream indices for per-stream player accounting.
const (
	streamScreen = iota
	streamAccessory
	numStreams
)

// slotRing sizes the per-stream media store behind each jitter buffer
// (indexed by seq % slotRing); maxBuffered caps the jitter buffers well
// below it so live sequence numbers never collide in the ring.
const (
	slotRing    = 64
	maxBuffered = 32
	// dacRing is the screen DAC history the mic reads from: a power of
	// two covering the longest air delay plus two frames.
	dacRing = 16384
)

// mediaSlot holds one buffered downlink frame's identity and samples.
type mediaSlot struct {
	seq          int
	valid        bool
	contentStart int64
	off          int
	samples      []int16
}

// played records when a device played a run of game content: content
// sample `content` left the DAC at device time `at` (seconds on the
// loadgen clock), followed by n-1 contiguous samples.
type played struct {
	content int64
	n       int
	at      float64
}

// playRing remembers the most recent content a device played so the other
// device's playout of the same content can be paired with it.
type playRing struct {
	buf  [64]played
	next int
	full bool
}

func (r *playRing) add(p played) {
	r.buf[r.next] = p
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// find returns the device time content sample c played, newest match
// first.
func (r *playRing) find(c int64) (float64, bool) {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	for i := 1; i <= n; i++ {
		p := &r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if c >= p.content && c < p.content+int64(p.n) {
			return p.at + float64(c-p.content)/sampleRate, true
		}
	}
	return 0, false
}

// Player is one emulated player on a virtual device clock: a screen
// device and an accessory (headset) device, each behind a threshold
// jitter buffer with a playout tick every exact 20 ms, plus the headset
// microphone that overhears the screen's DAC output through a
// sample-granular air delay and ships it back as chat.
//
// The player is driven entirely by its caller: PushMedia when a downlink
// frame arrives, Tick once per device tick. It touches no socket and no
// wall clock, so the live loadgen (paced by real time) and the shadow run
// and tests (flat out) share it.
//
// Because the player knows when each content sample left the screen's
// speaker and when the same sample left the headset, it computes the
// ground-truth inter-stream delay per frame without trusting the
// server's estimator: ISD(c) = (screenPlayed(c) + airDelay) −
// accessoryPlayed(c).
type Player struct {
	plan SessionPlan

	buf     [numStreams]*jitterbuf.Buffer
	slots   [numStreams][slotRing]mediaSlot
	started [numStreams]bool // stream played at least one frame
	ring    [numStreams]playRing

	dac  []float64 // screen DAC output ring, already attenuated
	tick int64     // next device tick index

	enc     *codec.Encoder
	mic     []float64
	encBuf  []byte
	chatSeq uint32
	pending []transport.PlaybackRecord
	spare   []transport.PlaybackRecord

	// joined flips when the first downlink frame arrives; the headset
	// starts uplinking chat plan.MicOnDelay later.
	joined bool

	Score Score
}

// NewPlayer builds the player for one session plan, uplinking chat with
// the given codec profile.
func NewPlayer(sp SessionPlan, uplink codec.Profile) *Player {
	p := &Player{
		plan: sp,
		dac:  make([]float64, dacRing),
		enc:  codec.NewEncoder(uplink),
		mic:  make([]float64, frameSamples),
	}
	for s := range p.buf {
		p.buf[s] = jitterbuf.New(jitterFrames)
		p.buf[s].MaxFrames = maxBuffered
		for i := range p.slots[s] {
			p.slots[s][i].samples = make([]int16, 0, frameSamples)
		}
	}
	p.Score.ReadyAt, p.Score.ChatAt = -1, -1
	return p
}

// TickTime is the loadgen-clock time (seconds) of device tick k.
func (p *Player) TickTime(k int64) float64 {
	return p.plan.TickPhase.Seconds() + float64(k)*frameSec
}

// NextTickTime is when the next Tick is due.
func (p *Player) NextTickTime() float64 { return p.TickTime(p.tick) }

// localMicros maps device tick k (plus an in-frame sample offset) onto
// the device's own unsynchronized clock.
func (p *Player) localMicros(k int64, sampleOff int) int64 {
	return p.plan.ClockOffsetMicros + p.plan.TickPhase.Microseconds() +
		k*frameDur.Microseconds() + int64(sampleOff)*1_000_000/sampleRate
}

// PushMedia delivers one downlink frame to a device's jitter buffer at
// loadgen time now. The samples are copied; m may be reused.
func (p *Player) PushMedia(stream int, m *transport.Media, now float64) {
	if !p.joined {
		p.joined = true
		p.Score.ReadyAt = now
	}
	seq := int(m.Seq)
	if !p.buf[stream].Push(jitterbuf.Frame{Seq: seq}) {
		return
	}
	sl := &p.slots[stream][seq%slotRing]
	sl.seq, sl.valid = seq, true
	sl.contentStart, sl.off = m.ContentStart, int(m.ContentOff)
	if stream == streamScreen {
		sl.samples = append(sl.samples[:0], m.Samples...)
	}
}

// pop runs one playout tick on a stream: it returns the frame the DAC
// plays, or nil when the DAC underruns (media that has not arrived when
// its playout tick is processed is silence, as on a real sound card).
// Start-up buffering before the stream first plays is not an underrun; a
// missing expected frame is, even when the buffer skips ahead to a later
// one.
func (p *Player) pop(stream int, t float64) *mediaSlot {
	_, ev := p.buf[stream].Pop()
	if p.started[stream] {
		p.Score.playout(stream, t, ev != jitterbuf.Played)
	}
	if ev == jitterbuf.Waiting {
		return nil
	}
	p.started[stream] = true
	seq := p.buf[stream].NextSeq() - 1
	sl := &p.slots[stream][seq%slotRing]
	if !sl.valid || sl.seq != seq {
		return nil
	}
	sl.valid = false
	return sl
}

// Tick runs device tick k = p.tick: both DACs pull a frame, ground-truth
// ISD is updated, and the mic frame that just completed is encoded. It
// returns the chat packet to uplink (valid until the next Tick) and
// whether there is one.
func (p *Player) Tick() (transport.Chat, bool) {
	k := p.tick
	p.tick++
	t := p.TickTime(k)
	airSec := float64(p.plan.AirDelaySamples) / sampleRate

	// Screen DAC: frame k occupies DAC positions [k·960, (k+1)·960).
	base := int(k) * frameSamples
	if sl := p.pop(streamScreen, t); sl != nil {
		for i, v := range sl.samples {
			p.dac[(base+i)&(dacRing-1)] = audio.Int16ToFloat(v) * attenuation
		}
		for i := len(sl.samples); i < frameSamples; i++ {
			p.dac[(base+i)&(dacRing-1)] = 0
		}
		if sl.contentStart >= 0 {
			pl := played{content: sl.contentStart, n: frameSamples - sl.off, at: t + float64(sl.off)/sampleRate}
			p.ring[streamScreen].add(pl)
			if at, ok := p.ring[streamAccessory].find(pl.content); ok {
				p.Score.isd(t, pl.at+airSec-at)
			}
		}
	} else {
		for i := 0; i < frameSamples; i++ {
			p.dac[(base+i)&(dacRing-1)] = 0
		}
	}

	// Accessory DAC: every content-bearing frame yields a playback record
	// on the device clock.
	if sl := p.pop(streamAccessory, t); sl != nil && sl.contentStart >= 0 {
		pl := played{content: sl.contentStart, n: frameSamples - sl.off, at: t + float64(sl.off)/sampleRate}
		p.ring[streamAccessory].add(pl)
		p.pending = append(p.pending, transport.PlaybackRecord{
			ContentStart: sl.contentStart,
			LocalMicros:  p.localMicros(k, sl.off),
			N:            uint16(pl.n),
		})
		if at, ok := p.ring[streamScreen].find(pl.content); ok {
			p.Score.isd(t, at+airSec-pl.at)
		}
	}

	// Mic: the frame covering device samples [(k-1)·960, k·960) is
	// complete now; it hears the screen DAC AirDelaySamples earlier.
	if k == 0 || !p.joined || t < p.Score.ReadyAt+p.plan.MicOnDelay.Seconds() {
		return transport.Chat{}, false
	}
	if p.Score.ChatAt < 0 {
		p.Score.ChatAt = t
	}
	from := base - frameSamples - p.plan.AirDelaySamples
	for i := range p.mic {
		if pos := from + i; pos >= 0 {
			p.mic[i] = p.dac[pos&(dacRing-1)]
		} else {
			p.mic[i] = 0
		}
	}
	pkt, err := p.enc.EncodeTo(p.encBuf[:0], p.mic)
	if err != nil {
		return transport.Chat{}, false
	}
	p.encBuf = pkt
	recs := p.pending
	p.pending, p.spare = p.spare[:0], recs
	chat := transport.Chat{
		Seq: p.chatSeq, Session: p.plan.ID,
		ADCMicros: p.localMicros(k-1, 0),
		Records:   recs, Encoded: pkt,
	}
	p.chatSeq++
	return chat, true
}

// Score is one session's player-side truth: ground-truth ISD per frame
// and every DAC underrun, bucketed into the measured window's seconds as
// they happen.
type Score struct {
	// ReadyAt is when the first downlink frame arrived, ChatAt when the
	// first chat frame was uplinked (-1 = never).
	ReadyAt, ChatAt float64
	// ISDAt / ISD hold the whole run's ground-truth series (loadgen-clock
	// seconds, ISD seconds).
	ISDAt, ISD []float64

	winStart float64
	secs     []secScore
}

// secScore is one session-second of the window.
type secScore struct {
	maxAbsISD float64
	isdFrames int
	ticks     [numStreams]int
	underruns [numStreams]int
}

// SetWindow arms per-second bucketing for a window of n whole seconds
// starting at loadgen time start.
func (s *Score) SetWindow(start float64, n int) {
	s.winStart = start
	s.secs = make([]secScore, n)
}

func (s *Score) sec(t float64) *secScore {
	if s.secs == nil || t < s.winStart {
		return nil
	}
	if i := int(t - s.winStart); i < len(s.secs) {
		return &s.secs[i]
	}
	return nil
}

func (s *Score) isd(t, v float64) {
	s.ISDAt = append(s.ISDAt, t)
	s.ISD = append(s.ISD, v)
	if b := s.sec(t); b != nil {
		b.isdFrames++
		if a := math.Abs(v); a > b.maxAbsISD {
			b.maxAbsISD = a
		}
	}
}

func (s *Score) playout(stream int, t float64, underrun bool) {
	if b := s.sec(t); b != nil {
		b.ticks[stream]++
		if underrun {
			b.underruns[stream]++
		}
	}
}

// ConvergeAt returns the first instant after which ground-truth |ISD|
// stays under the sync threshold for convergeHoldSec, searching from time
// `from`; ok is false when no such instant exists in the series.
func (s *Score) ConvergeAt(from float64) (at float64, ok bool) {
	start := -1
	for i, t := range s.ISDAt {
		if t < from {
			continue
		}
		if math.Abs(s.ISD[i]) >= syncThresholdSec {
			start = -1
			continue
		}
		if start < 0 {
			start = i
		}
		if t-s.ISDAt[start] >= convergeHoldSec {
			return s.ISDAt[start], true
		}
	}
	return 0, false
}
