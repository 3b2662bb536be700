//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// Puts on purpose, so pooled borrows allocate at random.
const raceEnabled = true
