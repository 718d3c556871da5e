//go:build race

package main

// raceEnabled reports whether the race detector instruments this
// build: the full harness is then too slow for a test.
const raceEnabled = true
