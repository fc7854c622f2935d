//go:build !race

package oskit

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation slows knit proper and the compiler unequally.
const raceEnabled = false
