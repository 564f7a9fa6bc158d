//go:build race

package experiments

// raceEnabled reports a -race build, whose shadow memory makes the
// worldd table's 10k-world fleet too large to run.
const raceEnabled = true
