//go:build !race

package repro

// raceEnabled lets the wall-time ratio pins skip under the race
// detector, whose instrumentation distorts the ratios they pin.
const raceEnabled = false
