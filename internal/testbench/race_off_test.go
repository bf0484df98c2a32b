//go:build !race

package testbench

// raceEnabled lets allocation-pin tests skip under the race detector,
// whose instrumentation distorts allocation accounting.
const raceEnabled = false
