package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Layer names a span: the hub-side pipeline layers in the ROADMAP's
// vocabulary, plus the two roots that parent them (one hub tick or one
// chat packet of one session).
type Layer uint8

// Span layers.
const (
	LayerTick       Layer = iota // root: one media tick of one session
	LayerChat                    // root: one uplink chat packet of one session
	LayerSocketRead              // Conn.RecvBatch on real UDP (contains its own wire decode)
	LayerWireDecode              // Decoder.DecodeInto on the same datagram, timed alone
	LayerReorder                 // jitterbuf.Reorder Offer/Pop
	LayerMatch                   // RecordBook.Add/Evict + MarkerLedger.Resolve
	LayerChatDecode              // codec Decoder.DecodeTo / ConcealTo
	LayerEstimator               // estimator.Streamer.AddChat (coarse correlate + fine refine)
	LayerCompensate              // Compensator.Offer + Stream.Apply
	LayerStreamNext              // serverpipe.Stream.Next (both streams)
	LayerInject                  // pn.Injector.ProcessFrame + MarkerLedger.Add
	LayerWireEncode              // PCM conversion + WireEncoder.AppendMedia (both streams)
	LayerSend                    // Conn.SendBatch on real UDP
	numLayers
)

var layerNames = [numLayers]string{
	"tick", "chat", "socket_read", "wire_decode", "reorder", "match", "chat_decode",
	"estimator", "compensate", "stream_next", "inject", "wire_encode", "send",
}

func (l Layer) String() string { return layerNames[l] }

// Span is one timed call into a layer.
type Span struct {
	Layer   Layer
	Session uint32
	// Parent is the index of the enclosing span, -1 for a root.
	Parent     int32
	Start, End int64 // ns since the tracer's epoch
}

// Tracer records spans in memory; they are written out when the run ends.
// A nil *Tracer records nothing, so untraced sessions run the same code.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  int32 // innermost open span, -1 at top level
}

// NewTracer returns an empty tracer with room for n spans.
func NewTracer(n int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, n), open: -1}
}

// Begin opens a span under the innermost open one and returns its index.
func (t *Tracer) Begin(l Layer, session uint32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Layer: l, Session: session, Parent: t.open, Start: int64(time.Since(t.epoch))})
	t.open = id
	return id
}

// End closes span id (the innermost open one).
func (t *Tracer) End(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.open = s.Parent
}

// LayerCost is one layer's total over a set of spans.
type LayerCost struct {
	Count  int   // spans of this layer
	SelfNS int64 // duration minus the part covered by child spans
	// TotalNS is the plain sum of durations.
	TotalNS int64
}

// SelfTimes folds spans into per-layer costs: a span's self time is its
// duration minus the durations of its direct children.
func SelfTimes(spans []Span) [numLayers]LayerCost {
	var out [numLayers]LayerCost
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		c := &out[s.Layer]
		c.Count++
		c.TotalNS += s.End - s.Start
		c.SelfNS += s.End - s.Start - child[i]
	}
	return out
}

// WriteSpans writes spans as CSV: layer,session,start_ns,end_ns,parent.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,session,start_ns,end_ns,parent")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.Layer, s.Session, s.Start, s.End, s.Parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
