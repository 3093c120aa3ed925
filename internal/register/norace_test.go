//go:build !race

package register

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
