//go:build race

package frame

import (
	"math"
	"testing"
)

// Under the race detector released storage is poisoned, so a Row slice
// kept past Release — a use-after-release — reads NaN pixels, which no
// byte-identity check (MaxAbsDiff included) lets through.
func TestReleasedRowReadsPoison(t *testing.T) {
	im := NewImage(64, 64)
	im.GrowExact(Rect{X0: 0, Y0: 0, X1: 64, Y1: 64})
	im.Set(7, 9, Pixel{I: 0.5, A: 0.5})
	row := im.Row(9, 0, 64)
	im.Release()
	for _, x := range []int{0, 7, 63} {
		if p := row[x]; !math.IsNaN(p.I) || !math.IsNaN(p.A) || p.Blank() {
			t.Fatalf("pixel %d of a row kept past Release reads %+v, want the NaN poison", x, p)
		}
	}
}
