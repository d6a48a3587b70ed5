//go:build race

package livenet

// raceEnabled lets timing measurements skip themselves under the race
// detector, whose instrumentation is what they would measure.
const raceEnabled = true
