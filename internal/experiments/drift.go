package experiments

import (
	"fmt"
	"math"

	"ekho/internal/analysis"
	"ekho/internal/session"
)

func init() { register("drift", runDrift) }

// driftArm summarizes one (SRO, regime) session.
type driftArm struct {
	sroPPM   float64
	comp     bool // drift compensation on
	inSync   float64
	convSec  float64 // first time after which |ISD| stays ≤ 10 ms; duration if never
	tailPPM  float64 // residual ISD slope over the tail window, ppm
	tailP95  float64 // tail |ISD| p95, ms
	tailMax  float64 // tail |ISD| max, ms
	actions  int
	retunes  int
	finalPPM float64 // last commanded resample rate
}

// runDriftArm executes one scenario arm and extracts the drift metrics.
func runDriftArm(sro float64, comp bool, dur, tailSec float64) driftArm {
	sc := session.DriftScenario(sro)
	sc.DriftCompensation = comp
	sc.DurationSec = dur
	res := session.Run(sc)

	a := driftArm{sroPPM: sro, comp: comp, inSync: res.InSyncFraction,
		actions: len(res.Actions), retunes: len(res.Resamples)}
	if n := len(res.Resamples); n > 0 {
		a.finalPPM = res.Resamples[n-1].Resample.PPM
	}

	// Convergence: the time of the last post-warmup excursion beyond the
	// 10 ms in-sync bound (everything after stays in sync). A session
	// that never settles is censored at the duration.
	a.convSec = 0
	for _, p := range res.Trace {
		if p.TimeSec < sc.WarmupIgnoreSec {
			continue
		}
		if math.Abs(p.ISDSeconds) > 0.010 {
			a.convSec = p.TimeSec
		}
	}

	// Tail window |ISD| distribution (includes any sawtooth excursions).
	var abs []float64
	for _, p := range res.Trace {
		if p.TimeSec < dur-tailSec {
			continue
		}
		abs = append(abs, math.Abs(p.ISDSeconds)*1000)
	}
	a.tailP95 = analysis.Percentile(abs, 0.95)
	for _, v := range abs {
		if v > a.tailMax {
			a.tailMax = v
		}
	}

	// Residual slope: least squares over the ground-truth ISD *after* the
	// last correction settled (a discrete step inside the fit window
	// would read as hundreds of ppm of phantom slope). Falls back to the
	// tail window when the last correction is too close to the end.
	fitFrom := dur - tailSec
	lastT := 0.0
	for _, ac := range res.Actions {
		if ac.TimeSec > lastT {
			lastT = ac.TimeSec
		}
	}
	for _, rs := range res.Resamples {
		if rs.TimeSec > lastT {
			lastT = rs.TimeSec
		}
	}
	if t := lastT + 2; t > fitFrom && t < dur-5 {
		fitFrom = t
	}
	var ts, isds []float64
	for _, p := range res.Trace {
		if p.TimeSec < fitFrom {
			continue
		}
		ts = append(ts, p.TimeSec)
		isds = append(isds, p.ISDSeconds)
	}
	a.tailPPM = fitSlope(ts, isds) * 1e6
	return a
}

// fitSlope is a plain least-squares slope of y over x.
func fitSlope(x, y []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(x))
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// runDrift sweeps controller sample-rate offsets (clock-drift scenarios)
// and compares the micro-resampling drift regime against the discrete
// level-only loop. Under an SRO the ISD is a ramp: the level-only loop
// can only chase it with a sawtooth, while the drift regime
// fits the slope and cancels it at the source by retuning the accessory
// stream's content rate.
//
// Values (per SRO, keys use the signed ppm value): "insync_drift_<sro>",
// "insync_level_<sro>", "conv_sec_drift_<sro>", "resid_ppm_drift_<sro>",
// "tail_p95_ms_drift_<sro>", "tail_max_ms_drift_<sro>",
// "final_rate_ppm_<sro>", "retunes_<sro>"; plus the headline
// "tail_max_ms_drift_100" acceptance metric (steady-state |ISD| with
// +100 ppm SRO, must sit below the 10 ms in-sync bound).
func runDrift(s Scale) *Report {
	r := &Report{ID: "drift", Title: "Clock drift: micro-resampling vs level-only compensation"}

	dur, tail := 120.0, 30.0
	sros := []float64{-200, -100, -50, -10, 10, 50, 100, 200}
	switch s {
	case Quick:
		dur, tail = 60, 20
		sros = []float64{100}
	case Full:
		dur = 180
	}

	r.addf("%8s  %-10s %8s %9s %10s %9s %9s %8s", "sro ppm", "regime", "in-sync", "conv s", "resid ppm", "p95 ms", "max ms", "rate ppm")
	for _, sro := range sros {
		d := runDriftArm(sro, true, dur, tail)
		l := runDriftArm(sro, false, dur, tail)
		for _, a := range []driftArm{d, l} {
			regime := "level-only"
			if a.comp {
				regime = "drift"
			}
			r.addf("%+8.0f  %-10s %7.1f%% %9.1f %10.1f %9.2f %9.2f %+8.1f",
				a.sroPPM, regime, a.inSync*100, a.convSec, a.tailPPM, a.tailP95, a.tailMax, a.finalPPM)
		}
		key := func(prefix string) string { return fmt.Sprintf("%s%d", prefix, int(sro)) }
		r.set(key("insync_drift_"), d.inSync)
		r.set(key("insync_level_"), l.inSync)
		r.set(key("conv_sec_drift_"), d.convSec)
		r.set(key("resid_ppm_drift_"), d.tailPPM)
		r.set(key("resid_ppm_level_"), l.tailPPM)
		r.set(key("tail_p95_ms_drift_"), d.tailP95)
		r.set(key("tail_p95_ms_level_"), l.tailP95)
		r.set(key("tail_max_ms_drift_"), d.tailMax)
		r.set(key("final_rate_ppm_"), d.finalPPM)
		r.set(key("retunes_"), float64(d.retunes))
	}
	return r
}
