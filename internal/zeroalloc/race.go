//go:build race

package zeroalloc

const raceEnabled = true
