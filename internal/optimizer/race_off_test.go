//go:build !race

package optimizer_test

const raceEnabled = false
