//go:build !race

package mp

// poisonReleased is off outside race builds; see poison_race.go.
const poisonReleased = false
