//go:build race

package wal

// raceEnabled reports a -race build, whose instrumentation allocates,
// so allocation bounds cannot be measured there.
const raceEnabled = true
