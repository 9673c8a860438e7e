//go:build race

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
)

// Under the race detector released pixel storage is poisoned, so a Row
// slice of a dfb part kept past the gather — a read of what the gather
// consumed — sees the NaN poison on every rank, as a row kept past
// frame's own Release does. The barrier keeps every rank's merge, which
// allocates tiles, ahead of every release; the 16x16 tiles are of
// another size class than the root's 64x48 image, so nothing the
// gather allocates draws a released tile's storage and clears it
// before it is read.
func TestGatheredPartRowReadsPoison(t *testing.T) {
	imgs := randImages(rand.New(rand.NewSource(7)), 2, 64, 48, 1)
	comp, dec, _ := methodWorld(t, "dfb", testRoot(), 2, 16)
	err := inProcess(2, func(c mp.Comm) error {
		res, err := comp.Composite(c, dec, [3]float64{0, 0, 1}, imgs[c.Rank()].Clone())
		if err != nil {
			return err
		}
		var rows [][]frame.Pixel
		for _, part := range res.Parts {
			if b := part.Bounds(); !b.Empty() {
				rows = append(rows, part.Row(b.Y0, b.X0, b.X1))
			}
		}
		if len(rows) == 0 {
			return fmt.Errorf("rank %d: no part holds pixels", c.Rank())
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := GatherImage(c, 0, res); err != nil {
			return err
		}
		for _, row := range rows {
			if p := row[0]; !math.IsNaN(p.I) || !math.IsNaN(p.A) {
				return fmt.Errorf("rank %d: a part's row kept past the gather reads %+v, want the NaN poison",
					c.Rank(), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
