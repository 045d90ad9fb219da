//go:build !race

package thinunison_test

// raceEnabled skips the allocation pins under the race detector, whose
// instrumentation allocates.
const raceEnabled = false
