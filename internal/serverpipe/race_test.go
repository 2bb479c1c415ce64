//go:build race

package serverpipe

// raceEnabled reports whether the race detector is compiled in; its shadow
// memory and instrumentation distort heap and allocation counts.
const raceEnabled = true
