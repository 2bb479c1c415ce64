package gamesynth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"ekho/internal/audio"
)

// clipDigest hashes a clip's int16-quantized samples; a change means the
// workload every experiment runs on silently changed. Quantizing makes
// the digest blind to the sign of zero, which summing into a fresh buffer
// turns positive and summing in place keeps.
func clipDigest(spec ClipSpec, seconds float64) string {
	b := Generate(spec, seconds)
	h := sha256.New()
	var buf [2]byte
	for _, v := range b.Samples {
		binary.LittleEndian.PutUint16(buf[:], uint16(int16(v*32767)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenDigests holds every corpus clip's digest at 2 s, and
// goldenFullDigest the first clip's at ClipSeconds, the length the hub
// and the sessions run.
var goldenDigests = map[string]string{
	"crossfirex#1":                    "4a062efead137c09",
	"crossfirex#2":                    "57aee99710eb1512",
	"grid-legends#1":                  "54f0c679c81f6e5f",
	"grid-legends#2":                  "517954334a9f8ee3",
	"resident-evil-village#1":         "fe4d9cecdcb30cce",
	"resident-evil-village#2":         "f4f114ca70282e28",
	"deaths-door#1":                   "b1e63ec2c139a385",
	"deaths-door#2":                   "5376d694270bc19c",
	"halo-infinite#1":                 "aa997787cbd62fc1",
	"halo-infinite#2":                 "538641abfa1ef324",
	"sable#1":                         "ec7d82e4cadbc197",
	"sable#2":                         "250b57bda448b7da",
	"dying-light-2#1":                 "19c1620a007c9a79",
	"dying-light-2#2":                 "9d249b2699015863",
	"olliolli-world#1":                "bb9f6599a00f3261",
	"olliolli-world#2":                "d143ac9e07457ca1",
	"tales-of-arise#1":                "446083ea111ba1b5",
	"tales-of-arise#2":                "0537bcd24dee7af2",
	"elden-ring#1":                    "90da55a0e62c42d3",
	"elden-ring#2":                    "fa2b739f13adfde3",
	"ori-and-the-will-of-the-wisps#1": "7b9476b97103dfb3",
	"ori-and-the-will-of-the-wisps#2": "eadbe141c87ba505",
	"the-artful-escape#1":             "d91495ddce7e6f9b",
	"the-artful-escape#2":             "c3289a443a93ac5c",
	"forza-horizon-5#1":               "49a7960de28a6fce",
	"forza-horizon-5#2":               "afd6ba6d0f7fc01b",
	"psychonauts-2#1":                 "877d54378488508f",
	"psychonauts-2#2":                 "b2d25bb4a9315ed6",
	"tormented-souls#1":               "6e4569bcfe8a080e",
	"tormented-souls#2":               "6f6c842866b7579e",
}

const goldenFullDigest = "ca0f9735b3f476b0"

func TestGoldenDigestsPrint(t *testing.T) {
	// Helper for regenerating the table above after an intentional
	// synthesizer change: go test -run TestGoldenDigestsPrint -v
	if !testing.Verbose() {
		t.Skip("run with -v to print digests")
	}
	for _, spec := range Catalog() {
		fmt.Printf("\t%q: %q,\n", spec.ID(), clipDigest(spec, 2))
	}
	fmt.Printf("full-length %s: %q\n", Catalog()[0].ID(), clipDigest(Catalog()[0], ClipSeconds))
}

func TestCorpusGoldenDigests(t *testing.T) {
	cat := Catalog()
	if len(goldenDigests) != len(cat) {
		t.Fatalf("%d golden digests for %d clips", len(goldenDigests), len(cat))
	}
	seen := map[string]string{}
	for _, spec := range cat {
		d := clipDigest(spec, 2)
		if want := goldenDigests[spec.ID()]; d != want {
			t.Errorf("%s digest %s, golden %s", spec.ID(), d, want)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("clips %s and %s have identical audio", spec.ID(), prev)
		}
		seen[d] = spec.ID()
	}
	if d := clipDigest(cat[0], ClipSeconds); d != goldenFullDigest {
		t.Errorf("%s at %g s: digest %s, golden %s", cat[0].ID(), ClipSeconds, d, goldenFullDigest)
	}
}

// The hub synthesizes its clip at start-up, when nothing else holds
// memory, so the clip is what sets the start-up peak: a single-category
// clip must allocate its samples once. Mixing into a fresh buffer
// allocated them twice.
func TestGenerateAllocatesOneClip(t *testing.T) {
	spec := Catalog()[0]
	if len(spec.Categories) != 1 {
		t.Fatalf("%s has %d categories, want one", spec.ID(), len(spec.Categories))
	}
	clip := 8 * int(ClipSeconds*audio.SampleRate)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Generate(spec, ClipSeconds)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Generate(%s, %g s) allocated %d B, %.3f× one clip", spec.ID(), ClipSeconds, got, float64(got)/float64(clip))
	if got > uint64(clip)*105/100 {
		t.Errorf("allocated %d B, more than 1.05× one clip's %d B", got, clip)
	}
}

// BenchmarkGenerate times clip synthesis in ms per clip: the hub's clip
// (Catalog()[0] at ClipSeconds, built on its first admission) and the
// whole 30-clip corpus.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name  string
		specs []ClipSpec
	}{{"hub-clip", Catalog()[:1]}, {"corpus", Catalog()}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, spec := range c.specs {
					Generate(spec, ClipSeconds)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(c.specs)), "ms/clip")
		})
	}
}
