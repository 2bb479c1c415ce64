package session

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// zeroDriftScenarios are the seven simulator configurations whose
// measurement/action timelines are pinned by the golden file. They cover
// every compensation mode (silent and interpolated insert, muted screen), the three provider network shapes and a scripted
// loss/throttle/walk session — all with zero sample-rate offset, so the
// drift subsystem must leave them untouched down to the last bit.
func zeroDriftScenarios() map[string]Scenario {
	base := func() Scenario {
		sc := DefaultScenario()
		sc.DurationSec = 25
		return sc
	}
	scs := map[string]Scenario{}

	scs["default"] = base()

	interp := base()
	interp.InterpolatedInsert = true
	scs["interpolated"] = interp

	muted := base()
	muted.MutedScreen = true
	scs["muted"] = muted

	for _, p := range []string{"stadia", "gfn", "psnow"} {
		sc := base()
		sc.Provider = p
		scs[p] = sc
	}

	scripted := base()
	scripted.ScriptedLosses = []ScriptedLoss{
		{AtSec: 8, Stream: Screen, Frames: 3},
		{AtSec: 14, Stream: Accessory, Frames: 2},
	}
	scripted.ScriptedThrottles = []ScriptedThrottle{
		{AtSec: 10, DurationSec: 4, Stream: Screen, BandwidthBps: 300_000},
	}
	scripted.WalkToFt = 12
	scs["scripted"] = scripted

	return scs
}

// goldenDigest summarizes one scenario's full measurement/action timeline.
// The hash covers the exact IEEE-754 bits of every timestamp and ISD value
// plus every action field, so any behavioral change — however small —
// flips it.
type goldenDigest struct {
	Hash         string `json:"hash"`
	Measurements int    `json:"measurements"`
	Actions      int    `json:"actions"`
}

func digestResult(res *Result) goldenDigest {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(res.Measurements)))
	for _, m := range res.Measurements {
		f64(m.TimeSec)
		f64(m.ISDSeconds)
	}
	u64(uint64(len(res.Actions)))
	for _, a := range res.Actions {
		f64(a.TimeSec)
		u64(uint64(a.Action.Stream))
		u64(uint64(int64(a.Action.InsertFrames)))
		u64(uint64(int64(a.Action.SkipFrames)))
		u64(uint64(int64(a.Action.InsertSamples)))
		u64(uint64(int64(a.Action.SkipSamples)))
	}
	return goldenDigest{
		Hash:         fmt.Sprintf("%016x", h.Sum64()),
		Measurements: len(res.Measurements),
		Actions:      len(res.Actions),
	}
}

const zeroDriftGoldenPath = "testdata/zero_drift_golden.json"

// TestZeroDriftRegression is the SRO=0 bit-identity guard: with no
// sample-rate offset configured, every simulator scenario must produce
// measurement and compensation-action sequences identical to the
// pre-drift-subsystem behavior, captured in the checked-in golden file.
//
// Regenerate (only when a deliberate behavior change is being made) with:
//
//	EKHO_UPDATE_GOLDEN=1 go test ./internal/session -run TestZeroDriftRegression
//
// The goldens hash exact float bits, so they are tied to one architecture's
// floating-point behavior (generated on linux/amd64, which CI also runs).
func TestZeroDriftRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scs := zeroDriftScenarios()
	got := map[string]goldenDigest{}
	for name, sc := range scs {
		got[name] = digestResult(Run(sc))
	}

	if os.Getenv("EKHO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(zeroDriftGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(zeroDriftGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", zeroDriftGoldenPath)
		return
	}

	blob, err := os.ReadFile(zeroDriftGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with EKHO_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate goldens)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: timeline diverged from pre-drift behavior:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden entry %s has no scenario", name)
		}
	}
}
