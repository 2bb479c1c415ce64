//go:build race

package gamesynth

// raceEnabled reports whether the race detector is compiled in; it slows
// the sample loops of the oracle comparison about sevenfold.
const raceEnabled = true
