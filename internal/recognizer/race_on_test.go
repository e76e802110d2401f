//go:build race

package recognizer

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation makes throughput gates meaningless.
const raceEnabled = true
