package gamesynth

import (
	"math"
	"math/rand"
	"testing"

	"ekho/internal/audio"
	"ekho/internal/dsp"
)

func TestSpeechSpectralOccupancy(t *testing.T) {
	s := Speech(rand.New(rand.NewSource(1)), 5)
	low := dsp.BandPower(s.Samples, audio.SampleRate, 100, 5000)
	high := dsp.BandPower(s.Samples, audio.SampleRate, 8000, 16000)
	if low <= 0 {
		t.Fatal("speech should have energy below 5 kHz")
	}
	if high > low/10 {
		t.Fatalf("speech energy above 8 kHz too strong: %g vs %g", high, low)
	}
}

func TestSpeechHasPauses(t *testing.T) {
	s := Speech(rand.New(rand.NewSource(2)), 10)
	// Count 100 ms windows that are near-silent.
	win := audio.SampleRate / 10
	quiet := 0
	total := 0
	for start := 0; start+win <= s.Len(); start += win {
		total++
		if s.Slice(start, start+win).RMS() < 0.01 {
			quiet++
		}
	}
	if quiet == 0 {
		t.Fatal("speech should contain pauses")
	}
	if quiet == total {
		t.Fatal("speech should not be all silence")
	}
}

func TestSpeechDeterministic(t *testing.T) {
	a := Speech(rand.New(rand.NewSource(7)), 2)
	b := Speech(rand.New(rand.NewSource(7)), 2)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed must give identical audio")
		}
	}
}

func TestMusicHarmonicContent(t *testing.T) {
	m := Music(rand.New(rand.NewSource(3)), 5)
	if m.Len() != 5*audio.SampleRate {
		t.Fatalf("len %d", m.Len())
	}
	mid := dsp.BandPower(m.Samples, audio.SampleRate, 80, 4000)
	if mid <= 0 {
		t.Fatal("music should have energy in 80-4000 Hz")
	}
	if m.PeakAbs() > 0.76 {
		t.Fatalf("normalized peak %g", m.PeakAbs())
	}
}

func TestSFXHasTransientDynamics(t *testing.T) {
	s := SFX(rand.New(rand.NewSource(4)), 10)
	// Frame powers must vary a lot (transients): max/median ratio high.
	win := audio.SampleRate / 50 // 20 ms
	var powers []float64
	for start := 0; start+win <= s.Len(); start += win {
		powers = append(powers, s.Slice(start, start+win).RMS())
	}
	maxP, sum := 0.0, 0.0
	for _, p := range powers {
		if p > maxP {
			maxP = p
		}
		sum += p
	}
	mean := sum / float64(len(powers))
	if maxP < 3*mean {
		t.Fatalf("SFX lacks transients: max %g mean %g", maxP, mean)
	}
}

func TestBabbleDenser(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := Babble(rng, 5, 4)
	if b.Len() != 5*audio.SampleRate {
		t.Fatalf("len %d", b.Len())
	}
	// Babble with 4 voices should have fewer quiet windows than a single
	// speech stream.
	win := audio.SampleRate / 10
	quiet := func(x *audio.Buffer) int {
		q := 0
		for start := 0; start+win <= x.Len(); start += win {
			if x.Slice(start, start+win).RMS() < 0.01 {
				q++
			}
		}
		return q
	}
	single := Speech(rand.New(rand.NewSource(6)), 5)
	if quiet(b) > quiet(single) {
		t.Fatalf("babble quieter than single voice: %d vs %d", quiet(b), quiet(single))
	}
	if Babble(rng, 1, 0).Len() != audio.SampleRate {
		t.Fatal("voices<1 should clamp to 1")
	}
}

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 30 {
		t.Fatalf("catalog has %d clips, want 30", len(cat))
	}
	games := map[string]int{}
	seeds := map[int64]bool{}
	ids := map[string]bool{}
	for _, c := range cat {
		games[c.Game]++
		if seeds[c.Seed] {
			t.Fatalf("duplicate seed %d", c.Seed)
		}
		seeds[c.Seed] = true
		if ids[c.ID()] {
			t.Fatalf("duplicate id %s", c.ID())
		}
		ids[c.ID()] = true
		if len(c.Categories) == 0 {
			t.Fatalf("%s has no categories", c.ID())
		}
		if c.Index != 1 && c.Index != 2 {
			t.Fatalf("%s index %d", c.ID(), c.Index)
		}
	}
	if len(games) != 15 {
		t.Fatalf("%d games, want 15", len(games))
	}
	for g, n := range games {
		if n != 2 {
			t.Fatalf("game %q has %d clips", g, n)
		}
	}
	// All three categories must be represented as primaries.
	prim := map[Category]int{}
	for _, c := range cat {
		prim[c.Categories[0]]++
	}
	for _, want := range []Category{Speech_, Music_, SFX_} {
		if prim[want] == 0 {
			t.Fatalf("no clips with primary category %v", want)
		}
	}
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	spec := Catalog()[0]
	a := Generate(spec, 3)
	b := Generate(spec, 3)
	if a.Len() != 3*audio.SampleRate {
		t.Fatalf("len %d", a.Len())
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("Generate must be deterministic")
		}
	}
	if a.PeakAbs() > 0.76 || a.PeakAbs() < 0.1 {
		t.Fatalf("peak %g out of range", a.PeakAbs())
	}
}

func TestGenerateDiffersAcrossClips(t *testing.T) {
	cat := Catalog()
	a := Generate(cat[0], 1)
	b := Generate(cat[1], 1)
	same := 0
	for i := range a.Samples {
		if a.Samples[i] == b.Samples[i] {
			same++
		}
	}
	if same > a.Len()/2 {
		t.Fatal("different clips should differ")
	}
}

func TestSlug(t *testing.T) {
	if slug("Death's Door") != "deaths-door" {
		t.Fatalf("slug %q", slug("Death's Door"))
	}
	if slug("Forza Horizon 5") != "forza-horizon-5" {
		t.Fatalf("slug %q", slug("Forza Horizon 5"))
	}
}

func TestCategoryString(t *testing.T) {
	if Speech_.String() != "Speech" || Music_.String() != "Music" || SFX_.String() != "Game SFX" {
		t.Fatal("category names")
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category should still print")
	}
}

func TestAmplitudeDynamics(t *testing.T) {
	// Paper: "game audio amplitude is dynamic and varies significantly on
	// the timescale of few tens of ms" — verify for every category.
	for _, gen := range []func() *audio.Buffer{
		func() *audio.Buffer { return Speech(rand.New(rand.NewSource(8)), 5) },
		func() *audio.Buffer { return Music(rand.New(rand.NewSource(8)), 5) },
		func() *audio.Buffer { return SFX(rand.New(rand.NewSource(8)), 5) },
	} {
		b := gen()
		win := audio.SampleRate / 50
		minP, maxP := math.Inf(1), 0.0
		for start := 0; start+win <= b.Len(); start += win {
			p := b.Slice(start, start+win).RMS()
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		if maxP < 2*minP+1e-9 {
			t.Fatalf("flat amplitude: min %g max %g", minP, maxP)
		}
	}
}
