package gamesynth

import (
	"fmt"
	"math/rand"
	"strings"

	"ekho/internal/audio"
)

// Category classifies the dominant stimulus content of a clip, matching the
// three groupings of Figures 2 and 10.
type Category int

// Stimulus categories.
const (
	Speech_ Category = iota // named with a trailing underscore to avoid clashing with the Speech generator
	Music_
	SFX_
)

var categoryNames = [...]string{Speech_: "Speech", Music_: "Music", SFX_: "Game SFX"}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c >= 0 && int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// ClipSpec identifies one corpus clip: a game title, its genre, the clip
// index within the game, and the stimulus categories the clip contains.
// The first category is the primary one used for result grouping.
type ClipSpec struct {
	Game       string
	Genre      string
	Index      int // 1 or 2
	Categories []Category
	Seed       int64
}

// ID returns a short stable identifier such as "halo-infinite#1".
func (c ClipSpec) ID() string { return fmt.Sprintf("%s#%d", slug(c.Game), c.Index) }

// slug lower-cases s, joins its words with hyphens and drops
// apostrophes and other punctuation.
func slug(s string) string {
	return strings.Join(strings.Fields(strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		case r == ' ' || r == '-':
			return ' '
		}
		return -1
	}, s)), "-")
}

// Catalog returns the 30-clip corpus mirroring Table 2 of the paper:
// 15 titles spanning FPS, racing, horror, platformer and RPG genres with
// two 15-second clips each.
func Catalog() []ClipSpec {
	type entry struct {
		game, genre string
		c1, c2      []Category
	}
	entries := []entry{
		{"CrossFireX", "First Person Shooter", []Category{SFX_}, []Category{SFX_, Speech_}},
		{"GRID Legends", "Racing Simulator", []Category{SFX_, Speech_}, []Category{SFX_}},
		{"Resident Evil Village", "Survival Horror", []Category{Speech_}, []Category{SFX_}},
		{"Death's Door", "Isometric Action-Adventure", []Category{Music_}, []Category{Music_, SFX_}},
		{"Halo Infinite", "First Person Shooter", []Category{SFX_}, []Category{Speech_, SFX_}},
		{"Sable", "Adventure & Exploration", []Category{Music_, SFX_}, []Category{Music_}},
		{"Dying Light 2", "Action Role Playing Game", []Category{Speech_}, []Category{Speech_}},
		{"OlliOlli World", "Sports Action Platformer", []Category{Music_, SFX_}, []Category{Music_, SFX_}},
		{"Tales of Arise", "Action Role Playing Game", []Category{Speech_, Music_}, []Category{Speech_, Music_}},
		{"Elden Ring", "Soulsborne Role Playing Game", []Category{SFX_}, []Category{SFX_}},
		{"Ori and the Will of the Wisps", "Metroidvania Platformer", []Category{SFX_, Music_}, []Category{SFX_, Music_}},
		{"The Artful Escape", "Adventure Platformer", []Category{Speech_, Music_}, []Category{Speech_, Music_}},
		{"Forza Horizon 5", "Racing Simulator", []Category{Music_, Speech_}, []Category{SFX_, Music_, Speech_}},
		{"Psychonauts 2", "Adventure Platformer", []Category{Speech_}, []Category{Speech_}},
		{"Tormented Souls", "Psychological Horror Shooter", []Category{Speech_, Music_}, []Category{SFX_, Music_}},
	}
	var out []ClipSpec
	for gi, e := range entries {
		out = append(out,
			ClipSpec{Game: e.game, Genre: e.genre, Index: 1, Categories: e.c1, Seed: int64(1000 + gi*2)},
			ClipSpec{Game: e.game, Genre: e.genre, Index: 2, Categories: e.c2, Seed: int64(1001 + gi*2)},
		)
	}
	return out
}

// ClipSeconds is the corpus clip length used throughout the evaluation.
const ClipSeconds = 15.0

// Generate renders the clip described by spec: each listed category is
// synthesized and mixed, the primary category loudest. Deterministic for a
// given spec. The secondary categories are summed into the primary's
// buffer, so a single-category clip allocates one clip's samples.
func Generate(spec ClipSpec, seconds float64) *audio.Buffer {
	rng := rand.New(rand.NewSource(spec.Seed))
	mix := audio.NewBuffer(audio.SampleRate, 0)
	for i, cat := range spec.Categories {
		sub := rand.New(rand.NewSource(rng.Int63()))
		var b *audio.Buffer
		switch cat {
		case Speech_:
			b = Speech(sub, seconds)
		case Music_:
			b = Music(sub, seconds)
		default:
			b = SFX(sub, seconds)
		}
		if i == 0 {
			mix = b
		} else {
			mix.MixInto(b.Samples, 0, 0.55) // secondary content mixed under the primary
		}
	}
	return mix.Normalize(0.75)
}
