//go:build !race

package wire

// raceEnabled reports whether this binary was built with the race detector,
// under which sync.Pool drops items at random, so pooled paths allocate.
const raceEnabled = false
