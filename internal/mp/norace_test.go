//go:build !race

package mp

// raceEnabled is off outside race builds; see race_test.go.
const raceEnabled = false
