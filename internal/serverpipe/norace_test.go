//go:build !race

package serverpipe

const raceEnabled = false
