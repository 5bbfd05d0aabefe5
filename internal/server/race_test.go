//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation allocates,
// so retained-heap bounds cannot be measured there.
const raceEnabled = true
