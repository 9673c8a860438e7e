//go:build !race

package mpnet

// raceEnabled is off outside race builds; see race_test.go.
const raceEnabled = false
