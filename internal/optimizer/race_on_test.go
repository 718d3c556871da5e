//go:build race

package optimizer_test

// raceEnabled reports whether the race detector instruments this
// build. sync.Pool intentionally drops items under the detector, so
// allocation-count assertions are meaningless there.
const raceEnabled = true
