//go:build !race

package printer

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
