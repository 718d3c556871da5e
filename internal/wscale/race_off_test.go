//go:build !race

package wscale

const raceEnabled = false
