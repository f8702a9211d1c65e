//go:build !race

package xtc

const raceEnabled = false
