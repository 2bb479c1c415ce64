package estimator

import (
	"math"
	"math/rand"
	"testing"
)

// TestDriftTrackerRamps feeds synthetic ISD ramps shaped like real drift
// scenarios — one measurement every ~1.5 s, like the marker cadence — and
// checks the fitted level and slope against the generator.
func TestDriftTrackerRamps(t *testing.T) {
	const dt = 1.5 // seconds between measurements, marker-cadence-like

	cases := []struct {
		name  string
		level float64 // seconds at t=0
		slope float64 // seconds per second
		// slope2, when non-zero, replaces slope from switchAt onward
		// (continuing continuously from the value reached).
		slope2   float64
		switchAt float64
		noise    float64 // measurement noise sigma, seconds
		points   int
		// tolerances on the final fit
		levelTol float64
		slopeTol float64
		// convergeWithin asserts slope is within slopeTol of truth after
		// at most this many points past the validity minimum.
		convergeWithin int
	}{
		{
			name:  "level-only",
			level: 0.012, slope: 0,
			points: 24, levelTol: 1e-9, slopeTol: 1e-9, convergeWithin: 6,
		},
		{
			name:  "slope-only-100ppm",
			level: 0, slope: 100e-6,
			points: 24, levelTol: 1e-9, slopeTol: 1e-9, convergeWithin: 6,
		},
		{
			name:  "level-plus-slope",
			level: -0.008, slope: -50e-6,
			points: 24, levelTol: 1e-9, slopeTol: 1e-9, convergeWithin: 6,
		},
		{
			name:  "slope-change-midstream",
			level: 0, slope: 200e-6, slope2: -200e-6, switchAt: 30,
			points: 60, levelTol: 1e-4, slopeTol: 5e-6, convergeWithin: 22,
		},
		{
			name:  "noisy-ramp",
			level: 0.005, slope: 100e-6, noise: 0.0005,
			points: 40, levelTol: 1e-3, slopeTol: 25e-6, convergeWithin: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var tr DriftTracker
			truth := func(now float64) (isd, slope float64) {
				if tc.slope2 != 0 && now >= tc.switchAt {
					atSwitch := tc.level + tc.slope*tc.switchAt
					return atSwitch + tc.slope2*(now-tc.switchAt), tc.slope2
				}
				return tc.level + tc.slope*now, tc.slope
			}
			var fit DriftFit
			firstValid, converged := -1, -1
			lastRegime := 0 // index of first point in the current slope regime
			for i := 0; i < tc.points; i++ {
				now := float64(i) * dt
				if tc.slope2 != 0 && now >= tc.switchAt && float64(lastRegime)*dt < tc.switchAt {
					lastRegime = i
				}
				isd, slopeNow := truth(now)
				tr.Add(now, isd+tc.noise*rng.NormFloat64())
				fit = tr.Fit()
				if fit.Valid && firstValid < 0 {
					firstValid = i
				}
				if fit.Valid && converged < 0 && i >= lastRegime &&
					math.Abs(fit.SlopeSecPerSec-slopeNow) <= tc.slopeTol {
					converged = i
				}
				if fit.Valid && converged >= 0 && i < lastRegime {
					converged = -1 // slope switch invalidated convergence
				}
			}
			if !fit.Valid {
				t.Fatalf("fit never became valid after %d points", tc.points)
			}
			wantISD, wantSlope := truth(float64(tc.points-1) * dt)
			if d := math.Abs(fit.LevelSeconds - wantISD); d > tc.levelTol {
				t.Errorf("level = %.6f s, want %.6f s (|err| %.2g > %.2g)",
					fit.LevelSeconds, wantISD, d, tc.levelTol)
			}
			if d := math.Abs(fit.SlopeSecPerSec - wantSlope); d > tc.slopeTol {
				t.Errorf("slope = %.3f ppm, want %.3f ppm (|err| %.2g > %.2g)",
					fit.SlopeSecPerSec*1e6, wantSlope*1e6, d, tc.slopeTol)
			}
			if converged < 0 {
				t.Errorf("slope never converged within ±%.2g", tc.slopeTol)
			} else if limit := lastRegime + max(driftMinPoints, 2) + tc.convergeWithin; converged > limit {
				t.Errorf("slope converged at point %d, want ≤ %d", converged, limit)
			}
		})
	}
}

// A noiseless line must be recovered exactly (to float precision) and the
// reported standard error must be ~0; a noisy line's standard error must
// bracket the true slope at a few sigma.
func TestDriftTrackerStdErr(t *testing.T) {
	var tr DriftTracker
	for i := 0; i < 20; i++ {
		tr.Add(float64(i)*1.5, 0.001+75e-6*float64(i)*1.5)
	}
	fit := tr.Fit()
	if !fit.Valid {
		t.Fatal("fit invalid")
	}
	if fit.SlopeStdErr > 1e-12 {
		t.Errorf("noiseless stderr = %g, want ~0", fit.SlopeStdErr)
	}
	if fit.ResidualRMS > 1e-12 {
		t.Errorf("noiseless residual RMS = %g, want ~0", fit.ResidualRMS)
	}

	rng := rand.New(rand.NewSource(3))
	tr.Reset()
	const trueSlope = 100e-6
	for i := 0; i < 32; i++ {
		tr.Add(float64(i)*1.5, trueSlope*float64(i)*1.5+0.0003*rng.NormFloat64())
	}
	fit = tr.Fit()
	if fit.SlopeStdErr <= 0 {
		t.Fatal("noisy stderr not positive")
	}
	if math.Abs(fit.SlopeSecPerSec-trueSlope) > 4*fit.SlopeStdErr {
		t.Errorf("slope %.2f ppm outside 4σ of truth %.2f ppm (σ=%.2f ppm)",
			fit.SlopeSecPerSec*1e6, trueSlope*1e6, fit.SlopeStdErr*1e6)
	}
}

// Window behavior: old points age out by span, capacity is bounded, and a
// backwards timestamp resets the window.
func TestDriftTrackerWindow(t *testing.T) {
	var tr DriftTracker
	for i := 0; i < 100; i++ {
		tr.Add(float64(i)/2, float64(i)/2*1e-5)
	}
	if tr.Len() > driftWindow {
		t.Fatalf("window holds %d points, cap %d", tr.Len(), driftWindow)
	}
	fit := tr.Fit()
	if fit.SpanSec > driftSpanSec {
		t.Fatalf("span %.1f s exceeds limit", fit.SpanSec)
	}
	if !fit.Valid || math.Abs(fit.SlopeSecPerSec-1e-5) > 1e-12 {
		t.Fatalf("bad fit on clean line: %+v", fit)
	}

	// A long silence followed by one point leaves only that point.
	tr.Add(1000, 0)
	if tr.Len() != 1 {
		t.Fatalf("after span gap: %d points, want 1", tr.Len())
	}
	// Backwards time resets.
	tr.Add(999, 0)
	if tr.Len() != 1 {
		t.Fatalf("after clock step back: %d points, want 1", tr.Len())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Fit().Valid {
		t.Fatal("reset did not clear window")
	}
}

// Invalid fits (too few points / short span) must degrade to the latest
// raw measurement with zero slope — the level-only behavior.
func TestDriftTrackerDegradesToLevel(t *testing.T) {
	var tr DriftTracker
	tr.Add(0, 0.015)
	tr.Add(1.5, 0.017)
	fit := tr.Fit()
	if fit.Valid {
		t.Fatal("fit valid with 2 points")
	}
	if fit.LevelSeconds != 0.017 || fit.SlopeSecPerSec != 0 {
		t.Fatalf("degraded fit = %+v, want latest raw level and zero slope", fit)
	}
}
