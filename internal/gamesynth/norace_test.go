//go:build !race

package gamesynth

const raceEnabled = false
