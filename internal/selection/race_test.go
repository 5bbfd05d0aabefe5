//go:build race

package selection

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of the items put back, so pooled memory cannot be measured there.
const raceEnabled = true
