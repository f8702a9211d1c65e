//go:build !race

package osfs

const raceEnabled = false
