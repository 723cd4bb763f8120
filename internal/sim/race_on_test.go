//go:build race

package sim_test

// raceEnabled reports a -race build, where the race detector slows every
// atomic a stepped probe.Stats performs by more than an order of
// magnitude.
const raceEnabled = true
