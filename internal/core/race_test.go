//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a share of what is put
// back, so a test that pins a pooled path to the bytes it allocates skips
// under it.
const raceEnabled = true
