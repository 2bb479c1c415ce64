package experiments

import (
	"math"

	"ekho/internal/analysis"
	"ekho/internal/audio"
	"ekho/internal/compensator"
	"ekho/internal/serverpipe"
	"ekho/internal/session"
)

func init() { register("ext", runExtensions) }

// runExtensions exercises the features this implementation adds beyond the
// paper's evaluation (each is motivated or deferred by the paper itself):
//
//   - haptic feedback skew (§3.1 thresholds: 24 ms to audio, 30 ms to
//     video): with Ekho running, controller rumble fires within a frame of
//     the screen playback of the anchoring content;
//   - multi-endpoint sync (Figure 1's plural "screens"): two screens with
//     independent PN seeds converge against one accessory stream;
//   - PLC-style insertion (§4.4 future work): inserted delay synthesized
//     from surrounding audio has a far smaller worst-case waveform jump
//     than hard silence.
//
// Values: "haptic_skew_p95_ms", "haptic_matched_pct",
// "multi_insync_min_pct", "plc_jump_ratio".
func runExtensions(s Scale) *Report {
	r := &Report{ID: "ext", Title: "Extensions: haptics, multi-screen, PLC insertion"}

	// --- Haptics skew under Ekho. ---
	dur := 60.0
	if s == Quick {
		dur = 40
	}
	sc := session.DefaultScenario()
	sc.DurationSec = dur
	sc.HapticsEnabled = true
	res := session.Run(sc)
	var skews []float64
	matched := 0
	for _, h := range res.Haptics {
		if !h.Matched {
			continue
		}
		matched++
		if h.PlayedAt > dur/2 {
			skews = append(skews, math.Abs(h.SkewToScreen)*1000)
		}
	}
	p95 := analysis.Percentile(skews, 0.95)
	matchedPct := 100 * float64(matched) / float64(max(len(res.Haptics), 1))
	r.addf("haptics: %d events, %.0f%% matched; post-convergence |skew| p95 = %.1f ms (perception threshold 24 ms)",
		len(res.Haptics), matchedPct, p95)
	r.set("haptic_skew_p95_ms", p95)
	r.set("haptic_matched_pct", matchedPct)

	// --- Multi-screen convergence. ---
	msc := session.DefaultMultiScenario()
	msc.DurationSec = dur
	mres := session.RunMulti(msc)
	minIn := 1.0
	for _, f := range mres.InSyncFractions {
		if f < minIn {
			minIn = f
		}
	}
	r.addf("multi-screen: %d screens, %d joint corrections, worst in-sync fraction %.0f%%",
		len(mres.Traces), mres.Actions, minIn*100)
	r.set("multi_insync_min_pct", minIn*100)

	// --- PLC insertion quality: worst sample-to-sample jump over a
	// 220 Hz tone through the server's downlink stream, which takes a
	// two-frame insert and then a sub-frame one, silence vs interpolated
	// gaps. ---
	jump := func(interpolate bool) float64 {
		st := serverpipe.NewStream(audio.Tone(audio.SampleRate, 220, 1, 0.5))
		if interpolate {
			st.EnableInterpolation()
		}
		frame := make([]float64, audio.FrameSamples)
		var out []float64
		for f := 0; f < 24; f++ {
			switch f {
			case 8:
				st.Apply(compensator.Insert(compensator.AccessoryStream, 0.040))
			case 16:
				st.Apply(compensator.Insert(compensator.AccessoryStream, 0.0075))
			}
			st.Next(frame)
			out = append(out, frame...)
		}
		var worst float64
		for i := 1; i < len(out); i++ {
			if d := math.Abs(out[i] - out[i-1]); d > worst {
				worst = d
			}
		}
		return worst
	}
	silence := jump(false)
	interp := jump(true)
	ratio := interp / silence
	r.addf("PLC insertion: worst waveform jump %.3f (silence) vs %.3f (interpolated) — ratio %.2f",
		silence, interp, ratio)
	r.set("plc_jump_ratio", ratio)
	return r
}
