//go:build !race

package machine

// raceEnabled reports whether the tests run under the race detector,
// under which sync.Pool drops a quarter of what it is given.
const raceEnabled = false
