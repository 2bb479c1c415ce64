package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStdNormalCDFAnchors(t *testing.T) {
	if math.Abs(StdNormalCDF(0)-0.5) > 1e-12 {
		t.Fatal("Phi(0)")
	}
	if math.Abs(StdNormalCDF(1.96)-0.975) > 0.001 {
		t.Fatalf("Phi(1.96)=%g", StdNormalCDF(1.96))
	}
	if StdNormalCDF(-8) > 1e-10 || StdNormalCDF(8) < 1-1e-10 {
		t.Fatal("tails")
	}
}

func TestFalsePositiveRateTheta5(t *testing.T) {
	p := FalsePositiveRate(5)
	// 2(1-Phi(5)) ≈ 5.7e-7; Appendix A quotes 2E-4 % = 2e-6, same order.
	if p < 1e-7 || p > 5e-6 {
		t.Fatalf("p(theta=5) = %g, want ~1e-6 order", p)
	}
	// Monotone decreasing in theta.
	if FalsePositiveRate(6) >= p {
		t.Fatal("monotonicity")
	}
}

func TestFalsePeakRateScalesWithDelta(t *testing.T) {
	p := FalsePositiveRate(5)
	fp := FalsePeakRate(5, 100)
	want := 201 * p * p
	if math.Abs(fp-want) > 1e-20 {
		t.Fatalf("false peak %g want %g", fp, want)
	}
	// θ=5, δ=100 must be "one false peak every several hours" territory.
	mtbf := MeanTimeBetweenFalsePositives(fp, 48000)
	if mtbf < 3600 {
		t.Fatalf("MTBF %g s, want hours", mtbf)
	}
	if !math.IsInf(MeanTimeBetweenFalsePositives(0, 48000), 1) {
		t.Fatal("zero rate should be +Inf")
	}
}

func TestFalsePositiveRateMatchesMonteCarlo(t *testing.T) {
	// Validate the analytic rate against simulation at a low threshold
	// (θ=3 keeps the MC sample count reasonable).
	rng := rand.New(rand.NewSource(1))
	const n = 2_000_000
	count := 0
	for i := 0; i < n; i++ {
		if math.Abs(rng.NormFloat64()) > 3 {
			count++
		}
	}
	mc := float64(count) / n
	an := FalsePositiveRate(3)
	if math.Abs(mc-an)/an > 0.15 {
		t.Fatalf("MC %g vs analytic %g", mc, an)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := CDF(xs, []float64{0, 2.5, 3, 10})
	want := []float64{0, 0.4, 0.6, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cdf[%d]=%g want %g", i, got[i], want[i])
		}
	}
	for _, v := range CDF(nil, []float64{1}) {
		if !math.IsNaN(v) {
			t.Fatal("empty CDF should be NaN")
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		probes := make([]float64, 50)
		for i := range probes {
			probes[i] = -3 + float64(i)*0.12
		}
		cdf := CDF(xs, probes)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		return cdf[0] >= 0 && cdf[len(cdf)-1] <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFraction(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Fraction(xs, func(x float64) bool { return x <= 2 }) != 0.5 {
		t.Fatal("fraction")
	}
	if !math.IsNaN(Fraction(nil, func(float64) bool { return true })) {
		t.Fatal("empty fraction")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if Percentile(xs, 0) != 10 || Percentile(xs, 1) != 50 {
		t.Fatal("extremes")
	}
	if Percentile(xs, 0.5) != 30 {
		t.Fatal("median")
	}
	if math.Abs(Percentile(xs, 0.25)-20) > 1e-12 {
		t.Fatalf("p25 %g", Percentile(xs, 0.25))
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty")
	}
}

func TestMeanMaxAbs(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Max([]float64{1, 5, 3}) != 5 {
		t.Fatal("max")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty mean/max")
	}
}
