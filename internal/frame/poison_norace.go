//go:build !race

package frame

// checkFit and checkStore are off outside race builds; see
// poison_race.go.
const (
	checkFit   = false
	checkStore = false
)
