//go:build !race

package frame

import "testing"

// An image that regrows and releases storage of one size class, as a
// standing frame's working images do, allocates nothing once warm: the
// pool hands the released storage back without boxing it anew. (The
// race detector drops pooled items at random, hence the build tag.)
func TestWarmRegrowAllocatesNothing(t *testing.T) {
	im := NewImage(128, 128)
	regrow := func() {
		im.GrowExact(Rect{X0: 8, Y0: 8, X1: 72, Y1: 72})
		im.Release()
	}
	regrow()
	if a := testing.AllocsPerRun(100, regrow); a != 0 {
		t.Errorf("%g allocations per warm GrowExact + Release, want 0", a)
	}
}
