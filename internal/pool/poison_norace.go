//go:build !race

package pool

// poisonReleased is off outside race builds; see poison_race.go.
const poisonReleased = false
