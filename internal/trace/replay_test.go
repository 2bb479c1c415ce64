package trace_test

import (
	"os"
	"path/filepath"
	"testing"

	"ekho/internal/session"
	"ekho/internal/trace"
)

// TestReplayEquivalenceProviders is the determinism gate for the
// simulator hosts: a session recorded over each provider network profile
// must replay bit-identically — the replayed ISD measurement and
// compensation-action sequences equal the live session's exactly.
func TestReplayEquivalenceProviders(t *testing.T) {
	for _, name := range []string{"stadia", "gfn", "psnow"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), name+".ektrace")
			sc := session.DefaultScenario()
			sc.DurationSec = 15
			sc.Provider = name
			sc.RecordPath = path
			res := session.Run(sc)
			if len(res.Measurements) == 0 {
				t.Fatalf("live session produced no measurements")
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rep, err := trace.Replay(f)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !rep.OK() {
				for _, d := range rep.Divergences {
					t.Errorf("divergence %s", d)
				}
				t.Fatalf("replay diverged %d times", rep.DivergenceCount)
			}
			if rep.Events == 0 || rep.Ticks == 0 || rep.Chats == 0 {
				t.Fatalf("replay exercised nothing: %d events, %d ticks, %d chats",
					rep.Events, rep.Ticks, rep.Chats)
			}

			// Bit-identical ISD sequence vs the live session's sink log.
			if len(rep.ISDs) != len(res.Measurements) {
				t.Fatalf("replay saw %d measurements, live saw %d", len(rep.ISDs), len(res.Measurements))
			}
			for i, isd := range rep.ISDs {
				if isd != res.Measurements[i].ISDSeconds {
					t.Fatalf("measurement %d: replay %v, live %v", i, isd, res.Measurements[i].ISDSeconds)
				}
			}
			// Bit-identical compensation actions.
			if len(rep.Actions) != len(res.Actions) {
				t.Fatalf("replay saw %d actions, live saw %d", len(rep.Actions), len(res.Actions))
			}
			for i, a := range rep.Actions {
				if a != res.Actions[i].Action {
					t.Fatalf("action %d: replay %+v, live %+v", i, a, res.Actions[i].Action)
				}
			}
		})
	}
}

// TestReplayEquivalenceDrift extends the determinism gate to the drift
// regime: a recorded session with a +100 ppm controller sample-rate
// offset and drift compensation enabled must replay bit-identically,
// including the resample-retune sequence (the new record type).
func TestReplayEquivalenceDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.ektrace")
	sc := session.DriftScenario(100)
	sc.DurationSec = 60
	sc.RecordPath = path
	res := session.Run(sc)
	if len(res.Resamples) == 0 {
		t.Fatal("live session never retuned: drift regime not exercised")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := trace.Replay(f)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.OK() {
		for _, d := range rep.Divergences {
			t.Errorf("divergence %s", d)
		}
		t.Fatalf("replay diverged %d times", rep.DivergenceCount)
	}
	if !rep.Header.Drift {
		t.Fatal("recorded header lost Drift")
	}
	// Bit-identical resample sequence vs the live session's sink log.
	if len(rep.Resamples) != len(res.Resamples) {
		t.Fatalf("replay saw %d resamples, live saw %d", len(rep.Resamples), len(res.Resamples))
	}
	for i, r := range rep.Resamples {
		if r != res.Resamples[i].Resample {
			t.Fatalf("resample %d: replay %+v, live %+v", i, r, res.Resamples[i].Resample)
		}
	}
	if len(rep.ISDs) != len(res.Measurements) {
		t.Fatalf("replay saw %d measurements, live saw %d", len(rep.ISDs), len(res.Measurements))
	}
	for i, isd := range rep.ISDs {
		if isd != res.Measurements[i].ISDSeconds {
			t.Fatalf("measurement %d: replay %v, live %v", i, isd, res.Measurements[i].ISDSeconds)
		}
	}
}

// TestReplayTwiceIdentical replays the same trace twice and demands the
// two reports agree — replay itself must be deterministic.
func TestReplayTwiceIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twice.ektrace")
	sc := session.DefaultScenario()
	sc.DurationSec = 10
	sc.Provider = "stadia"
	sc.RecordPath = path
	session.Run(sc)

	run := func() *trace.ReplayReport {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := trace.Replay(f)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !a.OK() || !b.OK() {
		t.Fatalf("replays diverged: %d / %d", a.DivergenceCount, b.DivergenceCount)
	}
	if a.Final != b.Final {
		t.Fatalf("final stats differ:\n%s\n%s", a.Final, b.Final)
	}
	if len(a.ISDs) != len(b.ISDs) {
		t.Fatalf("ISD counts differ: %d vs %d", len(a.ISDs), len(b.ISDs))
	}
	for i := range a.ISDs {
		if a.ISDs[i] != b.ISDs[i] {
			t.Fatalf("ISD %d differs: %v vs %v", i, a.ISDs[i], b.ISDs[i])
		}
	}
}
