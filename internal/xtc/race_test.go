//go:build race

package xtc

// raceEnabled: the race detector makes sync.Pool drop a share of what is put
// back, so tests that pin pooled paths to an allocation count skip under it.
const raceEnabled = true
