//go:build race

package osfs

// raceEnabled: the race detector makes sync.Pool drop a share of what is put
// back, so the send allocation count is not pinned under it.
const raceEnabled = true
