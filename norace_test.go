//go:build !race

package sortlast

// raceEnabled gates allocation-exactness assertions; see race_test.go.
const raceEnabled = false
