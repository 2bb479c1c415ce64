package serverpipe

import (
	"math/rand"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/compensator"
)

func TestStreamContentTracking(t *testing.T) {
	game := audio.FromSamples(audio.SampleRate, make([]float64, 4800))
	for i := range game.Samples {
		game.Samples[i] = float64(i % 4800)
	}
	st := NewStream(game)
	f := make([]float64, audio.FrameSamples)
	fi := st.Next(f)
	if fi.Seq != 0 || fi.ContentStart != 0 || fi.ContentOff != 0 || f[0] != 0 || f[959] != 959 {
		t.Fatalf("first frame: %+v", fi)
	}
	// Insert one frame of silence.
	st.Apply(compensator.Action{InsertFrames: 1})
	fi = st.Next(f)
	if fi.ContentStart != -1 || f[0] != 0 {
		t.Fatalf("silence frame: c=%d", fi.ContentStart)
	}
	fi = st.Next(f)
	if fi.ContentStart != 960 || fi.ContentOff != 0 || f[0] != 960 {
		t.Fatalf("content resumes: c=%d f0=%g", fi.ContentStart, f[0])
	}
	// Skip reverts pending silence first.
	st.Apply(compensator.Action{InsertFrames: 2})
	st.Apply(compensator.Action{SkipFrames: 1})
	fi = st.Next(f)
	if fi.ContentStart != -1 {
		t.Fatal("one silence frame should remain")
	}
	fi = st.Next(f)
	if fi.ContentStart != 1920 {
		t.Fatalf("content after revert: c=%d want 1920", fi.ContentStart)
	}
	// Skip without pending silence drops content.
	st.Apply(compensator.Action{SkipFrames: 1})
	fi = st.Next(f)
	if fi.ContentStart != 1920+2*960 {
		t.Fatalf("content after drop: c=%d want %d", fi.ContentStart, 1920+2*960)
	}
	// Content loops over the game buffer (position 3840 % 4800 = 3840).
	if f[0] != float64((1920+2*960)%4800) {
		t.Fatalf("loop value %g", f[0])
	}
	// Seq advanced once per frame regardless of compensation.
	if fi.Seq != 5 {
		t.Fatalf("seq %d want 5", fi.Seq)
	}
}

func TestStreamSubFrame(t *testing.T) {
	game := audio.FromSamples(audio.SampleRate, make([]float64, 9600))
	for i := range game.Samples {
		game.Samples[i] = 1
	}
	st := NewStream(game)
	st.Apply(compensator.Action{InsertSamples: 100})
	f := make([]float64, audio.FrameSamples)
	fi := st.Next(f)
	if fi.ContentOff != 100 || fi.ContentStart != 0 {
		t.Fatalf("off=%d c=%d", fi.ContentOff, fi.ContentStart)
	}
	for i := 0; i < 100; i++ {
		if f[i] != 0 {
			t.Fatal("leading silence expected")
		}
	}
	if f[100] != 1 {
		t.Fatal("content should follow silence")
	}
	// Position advanced by only 860 content samples.
	if st.NextContent() != 860 {
		t.Fatalf("pos %d want 860", st.NextContent())
	}
	// A sample skip drains inserted samples before it drops content.
	st.Apply(compensator.Action{InsertSamples: 300})
	st.Apply(compensator.Action{SkipSamples: 200})
	if fi = st.Next(f); fi.ContentOff != 100 || fi.ContentStart != 860 {
		t.Fatalf("after trim: off=%d c=%d, want 100 and 860", fi.ContentOff, fi.ContentStart)
	}
}

// Next copies runs of the looped clip instead of indexing it per sample.
// Against the per-sample reference game[pos mod len], frame after frame
// lands its wrap point at every offset in the frame — clips that are not a
// multiple of a frame, one shorter than a frame, sub-frame inserts and
// skips shifting the content start — and every sample and position agrees.
func TestStreamNextWrapsLikePerSampleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, clipLen := range []int{audio.FrameSamples, 2*audio.FrameSamples + 1, 4801, 313} {
		game := audio.FromSamples(audio.SampleRate, make([]float64, clipLen))
		for i := range game.Samples {
			game.Samples[i] = rng.NormFloat64()
		}
		st := NewStream(game)
		pos := 0 // the reference's content position
		f := make([]float64, audio.FrameSamples)
		for frame := 0; frame < 400; frame++ {
			var a compensator.Action
			switch rng.Intn(6) {
			case 0:
				a.InsertSamples = rng.Intn(audio.FrameSamples)
			case 1:
				a.SkipSamples = rng.Intn(2 * audio.FrameSamples)
			}
			st.Apply(a)
			fi := st.Next(f)
			if fi.ContentStart < 0 {
				continue
			}
			if fi.ContentStart < int64(pos) {
				t.Fatalf("clip %d frame %d: content went back from %d to %d", clipLen, frame, pos, fi.ContentStart)
			}
			pos = int(fi.ContentStart)
			for i := fi.ContentOff; i < audio.FrameSamples; i++ {
				if want := game.Samples[pos%clipLen]; f[i] != want {
					t.Fatalf("clip %d frame %d sample %d (content %d): %g, want %g", clipLen, frame, i, pos, f[i], want)
				}
				pos++
			}
			if got := st.NextContent(); got != int64(pos) {
				t.Fatalf("clip %d frame %d: next content %d, want %d", clipLen, frame, got, pos)
			}
		}
	}
}

// A downlink frame from a 10 s clip, as the hub's tick produces one per
// session and stream every 20 ms.
func BenchmarkStreamNext(b *testing.B) {
	game := audio.FromSamples(audio.SampleRate, make([]float64, 10*audio.SampleRate+7))
	for i := range game.Samples {
		game.Samples[i] = float64(i%2000) / 2000
	}
	st := NewStream(game)
	f := make([]float64, audio.FrameSamples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Next(f)
	}
}
