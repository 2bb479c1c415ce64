package netsim

import "strings"

// ProviderProfile is a named bidirectional path shape modeled on the
// measured behavior of a commercial cloud-gaming provider. The built-in
// profiles follow the Stadia / GeForce Now / PlayStation Now measurement
// study (arXiv:2012.06774): Stadia serves from nearby edge PoPs with the
// lowest and most stable delay, GeForce Now sits in the middle, and
// PS Now shows the highest latency, jitter and loss of the three.
// Magnitudes are one-way figures consistent with the study's RTT
// distributions; the relative ordering — not the exact milliseconds — is
// what the profiles preserve.
type ProviderProfile struct {
	// Name is the canonical profile name ("stadia", "gfn", "psnow").
	Name string
	// Down is the server→device link shape; Up is device→server. Both
	// downlinks of a session (screen and accessory) use Down with
	// distinct seeds.
	Down LinkConfig
	Up   LinkConfig
}

// Built-in provider profiles (one-way shapes).
var (
	// Stadia: edge-hosted, lowest delay, tight jitter, near-zero loss.
	Stadia = ProviderProfile{
		Name: "stadia",
		Down: LinkConfig{BaseDelay: 0.012, JitterStd: 0.0015, LossProb: 0.00005, BurstFactor: 1.5},
		Up:   LinkConfig{BaseDelay: 0.014, JitterStd: 0.002, LossProb: 0.0001, BurstFactor: 1.5},
	}
	// GeForceNow: regional data centers, moderate delay and jitter.
	GeForceNow = ProviderProfile{
		Name: "gfn",
		Down: LinkConfig{BaseDelay: 0.020, JitterStd: 0.004, LossProb: 0.0004, BurstFactor: 2},
		Up:   LinkConfig{BaseDelay: 0.024, JitterStd: 0.005, LossProb: 0.0006, BurstFactor: 2},
	}
	// PSNow: farthest infrastructure of the three — highest base delay,
	// heavy jitter, visible bursty loss.
	PSNow = ProviderProfile{
		Name: "psnow",
		Down: LinkConfig{BaseDelay: 0.038, JitterStd: 0.009, LossProb: 0.0015, BurstFactor: 3},
		Up:   LinkConfig{BaseDelay: 0.044, JitterStd: 0.011, LossProb: 0.002, BurstFactor: 3},
	}
)

// Providers returns the built-in provider profiles in a stable order.
func Providers() []ProviderProfile {
	return []ProviderProfile{Stadia, GeForceNow, PSNow}
}

// ProviderByName resolves a profile by canonical name or alias,
// case-insensitively.
func ProviderByName(name string) (ProviderProfile, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "stadia":
		return Stadia, true
	case "gfn", "geforce-now", "geforcenow":
		return GeForceNow, true
	case "psnow", "ps-now":
		return PSNow, true
	}
	return ProviderProfile{}, false
}
