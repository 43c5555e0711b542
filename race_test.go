//go:build race

package ballsbins

const raceEnabled = true
