//go:build race

package seal

// raceEnabled reports whether the tests run under the race detector,
// which changes allocation counts and sizes.
const raceEnabled = true
