//go:build !race

package frame

// poisonReleased is off outside race builds; see poison_race.go.
const poisonReleased = false
