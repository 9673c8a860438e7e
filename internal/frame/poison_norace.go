//go:build !race

package frame

// poisonReleased and checkFit are off outside race builds; see
// poison_race.go.
const (
	poisonReleased = false
	checkFit       = false
)
