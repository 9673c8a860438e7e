//go:build !race

package frame

// poisonReleased, checkFit and checkStore are off outside race builds; see
// poison_race.go.
const (
	poisonReleased = false
	checkFit       = false
	checkStore     = false
)
