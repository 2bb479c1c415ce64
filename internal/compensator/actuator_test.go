package compensator_test

// The compensator's actions are carried out by serverpipe.Stream, the one
// actuator: these tests drive Actions through it.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/serverpipe"
)

// Under random inserts and skips with sample remainders every frame is
// 960 samples, and the content position advances by the content emitted
// plus the content skipped. Skips drain inserted delay first, so once
// the stream is back on content the gap it emitted, less the net delay
// inserted, is exactly the content it dropped.
func TestEditorConservationProperty(t *testing.T) {
	game := audio.Tone(audio.SampleRate, 250, 1, 0.5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := serverpipe.NewStream(game)
		dst := make([]float64, audio.FrameSamples)
		var net, gap, content int
		ok := true
		next := func() serverpipe.FrameInfo {
			fi := st.Next(dst)
			ok = ok && fi.ContentOff >= 0 && fi.ContentOff < audio.FrameSamples
			if fi.ContentStart < 0 {
				gap += audio.FrameSamples
			} else {
				gap += fi.ContentOff
				content += audio.FrameSamples - fi.ContentOff
			}
			return fi
		}
		for step := 0; step < 200; step++ {
			var a compensator.Action
			switch rng.Intn(10) {
			case 0:
				a = compensator.Action{InsertFrames: rng.Intn(3), InsertSamples: rng.Intn(audio.FrameSamples)}
			case 1:
				a = compensator.Action{SkipFrames: rng.Intn(2), SkipSamples: rng.Intn(audio.FrameSamples)}
			default:
				next()
				continue
			}
			st.Apply(a)
			net += int(math.Round(a.TotalDelaySeconds() * audio.SampleRate))
		}
		for fi := next(); fi.ContentStart < 0 || fi.ContentOff > 0; fi = next() {
		}
		skipped := gap - net
		return ok && skipped >= 0 && st.NextContent() == int64(content+skipped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// worstJump is the largest sample-to-sample step of a 220 Hz tone through
// a stream that takes a two-frame insert at frame 6 and a 7.5 ms one at
// frame 12.
func worstJump(interpolate bool) float64 {
	st := serverpipe.NewStream(audio.Tone(audio.SampleRate, 220, 1, 0.5))
	if interpolate {
		st.EnableInterpolation()
	}
	dst := make([]float64, audio.FrameSamples)
	var out []float64
	for f := 0; f < 18; f++ {
		switch f {
		case 6:
			st.Apply(compensator.Insert(compensator.AccessoryStream, 0.040))
		case 12:
			st.Apply(compensator.Insert(compensator.AccessoryStream, 0.0075))
		}
		st.Next(dst)
		out = append(out, dst...)
	}
	var worst float64
	for i := 1; i < len(out); i++ {
		worst = math.Max(worst, math.Abs(out[i]-out[i-1]))
	}
	return worst
}

func TestEditorInterpolatedInsertionQuieterDiscontinuity(t *testing.T) {
	silence, interp := worstJump(false), worstJump(true)
	t.Logf("worst jump: silence %.4f, interpolated %.4f (ratio %.3f)", silence, interp, interp/silence)
	if interp > 0.1*silence {
		t.Fatalf("interpolated insertion jump %g should be under a tenth of silence's %g", interp, silence)
	}
}

func TestEditorModeDefaultsToSilence(t *testing.T) {
	st := serverpipe.NewStream(audio.Tone(audio.SampleRate, 200, 1, 0.5))
	dst := make([]float64, audio.FrameSamples)
	st.Next(dst)
	st.Apply(compensator.Action{InsertFrames: 1})
	if fi := st.Next(dst); fi.ContentStart != -1 {
		t.Fatalf("inserted frame carries content at %d", fi.ContentStart)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("default insertion sample %d is %g, want silence", i, v)
		}
	}
}

// An interpolated gap shifts the content the way a silent one does.
func TestEditorInterpolatedPreservesFrameAccounting(t *testing.T) {
	st := serverpipe.NewStream(audio.Tone(audio.SampleRate, 200, 1, 0.5))
	st.EnableInterpolation()
	st.Apply(compensator.Action{InsertFrames: 2})
	dst := make([]float64, audio.FrameSamples)
	for f := 0; f < 8; f++ {
		fi := st.Next(dst)
		if gap := f < 2; gap != (fi.ContentStart == -1) {
			t.Fatalf("frame %d: content start %d", f, fi.ContentStart)
		}
	}
	if got := st.NextContent(); got != 6*audio.FrameSamples {
		t.Fatalf("content advanced %d samples, want 6 frames", got)
	}
}

// The FrameEditor tests below keep the names of the checks first written
// against the deleted second actuator; each now drives the same actions
// through serverpipe.Stream. The clip is a ramp, so sample value v is
// content position v-1 and every output sample names the content it
// carries.
func rampStream() *serverpipe.Stream {
	game := audio.FromSamples(audio.SampleRate, make([]float64, 20*audio.FrameSamples))
	for i := range game.Samples {
		game.Samples[i] = float64(i + 1)
	}
	return serverpipe.NewStream(game)
}

// heldDelay is the delay a stream holds after emitting frames frames:
// output samples sent less content samples consumed.
func heldDelay(st *serverpipe.Stream, frames int) int64 {
	return int64(frames*audio.FrameSamples) - st.NextContent()
}

func TestFrameEditorInsertDelaysContent(t *testing.T) {
	st := rampStream()
	st.Apply(compensator.Action{Stream: compensator.AccessoryStream, InsertFrames: 2})
	dst := make([]float64, audio.FrameSamples)
	for f := 0; f < 6; f++ {
		fi := st.Next(dst)
		if f < 2 {
			// The first two outputs are silence.
			if fi.ContentStart != -1 {
				t.Fatalf("output %d carries content at %d", f, fi.ContentStart)
			}
			for i, v := range dst {
				if v != 0 {
					t.Fatalf("output %d sample %d is %g, want silence", f, i, v)
				}
			}
			continue
		}
		// Then content resumes from its first frame.
		want := int64((f - 2) * audio.FrameSamples)
		if fi.ContentStart != want || fi.ContentOff != 0 || dst[0] != float64(want+1) {
			t.Fatalf("output %d: content %d off %d starts with %g, want content %d", f, fi.ContentStart, fi.ContentOff, dst[0], want)
		}
	}
	if got := heldDelay(st, 6); got != 2*audio.FrameSamples {
		t.Fatalf("held delay %d want two frames", got)
	}
}

func TestFrameEditorSkipDrainsInsertedDelay(t *testing.T) {
	st := rampStream()
	st.Apply(compensator.Action{InsertFrames: 2})
	dst := make([]float64, audio.FrameSamples)
	for f := 0; f < 4; f++ {
		st.Next(dst)
	}
	// Two frames of delay held. Skip one: the next output jumps ahead a
	// frame, from content frame 2 to content frame 3.
	st.Apply(compensator.Action{SkipFrames: 1})
	if fi := st.Next(dst); fi.ContentStart != 3*audio.FrameSamples || dst[0] != 3*audio.FrameSamples+1 {
		t.Fatalf("after skip, content %d starts with %g, want content %d", fi.ContentStart, dst[0], 3*audio.FrameSamples)
	}
	if got := heldDelay(st, 5); got != audio.FrameSamples {
		t.Fatalf("held delay %d want one frame", got)
	}
	// A skip that meets delay not yet emitted cancels it instead.
	st.Apply(compensator.Action{InsertFrames: 1})
	st.Apply(compensator.Action{SkipFrames: 1})
	if fi := st.Next(dst); fi.ContentStart != 4*audio.FrameSamples || fi.ContentOff != 0 {
		t.Fatalf("pending insert not cancelled: content %d off %d", fi.ContentStart, fi.ContentOff)
	}
	if got := heldDelay(st, 6); got != audio.FrameSamples {
		t.Fatalf("held delay %d want one frame", got)
	}
}

func TestFrameEditorSkipWithoutQueueDropsContent(t *testing.T) {
	st := rampStream()
	st.Apply(compensator.Action{SkipFrames: 1})
	dst := make([]float64, audio.FrameSamples)
	// With no delay held the skip drops the first content frame: output
	// starts at the second.
	if fi := st.Next(dst); fi.ContentStart != audio.FrameSamples || fi.ContentOff != 0 || dst[0] != audio.FrameSamples+1 {
		t.Fatalf("content %d off %d starts with %g, want content %d", fi.ContentStart, fi.ContentOff, dst[0], audio.FrameSamples)
	}
	if fi := st.Next(dst); fi.ContentStart != 2*audio.FrameSamples || dst[0] != 2*audio.FrameSamples+1 {
		t.Fatalf("content should run on at the next frame, got %d", fi.ContentStart)
	}
	if got := heldDelay(st, 2); got != -audio.FrameSamples {
		t.Fatalf("held delay %d want one frame ahead", got)
	}
}

func TestFrameEditorSubFrameInsert(t *testing.T) {
	st := rampStream()
	st.Apply(compensator.Action{InsertSamples: 100})
	dst := make([]float64, audio.FrameSamples)
	fi := st.Next(dst)
	// First 100 samples silence, then content.
	for i := 0; i < 100; i++ {
		if dst[i] != 0 {
			t.Fatalf("sample %d should be silence", i)
		}
	}
	if fi.ContentOff != 100 || fi.ContentStart != 0 || dst[100] != 1 {
		t.Fatalf("content should start at 100: off %d content %d, got %g", fi.ContentOff, fi.ContentStart, dst[100])
	}
	if got := heldDelay(st, 1); got != 100 {
		t.Fatalf("held delay %d want 100", got)
	}
}

func TestFrameEditorSubFrameTrim(t *testing.T) {
	st := rampStream()
	st.Apply(compensator.Action{InsertSamples: 300})
	dst := make([]float64, audio.FrameSamples)
	st.Next(dst)
	st.Apply(compensator.Action{SkipSamples: 200})
	fi := st.Next(dst)
	// The first frame carried content 0–659 behind 300 samples of
	// silence; trimming 200 drops content 660–859, so the last 100
	// samples of the first content frame lead and the second follows.
	if fi.ContentStart != 860 || fi.ContentOff != 0 || dst[0] != 861 || dst[99] != 960 {
		t.Fatalf("remaining first-frame samples should lead: content %d, %g…%g", fi.ContentStart, dst[0], dst[99])
	}
	if dst[100] != audio.FrameSamples+1 {
		t.Fatalf("second-frame content should follow, got %g", dst[100])
	}
	if got := heldDelay(st, 2); got != 100 {
		t.Fatalf("held delay %d want 100", got)
	}
}

func TestFrameEditorIdentityWhenIdle(t *testing.T) {
	st := rampStream()
	dst := make([]float64, audio.FrameSamples)
	for f := 0; f < 3; f++ {
		fi := st.Next(dst)
		if fi.Seq != uint32(f) || fi.ContentStart != int64(f*audio.FrameSamples) || fi.ContentOff != 0 {
			t.Fatalf("idle frame %d: %+v", f, fi)
		}
		for i, v := range dst {
			if want := float64(f*audio.FrameSamples + i + 1); v != want {
				t.Fatalf("idle frame %d sample %d is %g, want %g", f, i, v, want)
			}
		}
	}
	if got := heldDelay(st, 3); got != 0 {
		t.Fatalf("idle stream holds %d samples of delay", got)
	}
}
