package frame

import "testing"

func TestPixelSizeClass(t *testing.T) {
	for _, n := range []int{minPooledPix, minPooledPix + 1, 80, 81, 4096, 65536 + 1, maxPooledPix - 1, maxPooledPix} {
		idx, size := sizeClass(n)
		if size < n || size-n > size/4 {
			t.Errorf("sizeClass(%d) = %d: must hold n and waste under a quarter", n, size)
		}
		if idx < 0 || idx >= len(pixPools) {
			t.Fatalf("sizeClass(%d): pool index %d out of range", n, idx)
		}
	}
}

// Storage an image gave back is what a later image of its size class
// gets, cleared: dirty pixels never show through GrowExact. sync.Pool
// may drop an item (at random under the race detector) or the goroutine
// may migrate between Put and Get, so the test asks for one reuse in a
// handful of attempts, and for blank pixels every time.
func TestGrowExactClearsReusedStorage(t *testing.T) {
	r := Rect{X0: 3, Y0: 5, X1: 43, Y1: 35}
	reused := false
	for try := 0; try < 50; try++ {
		dirty := NewImage(64, 64)
		dirty.GrowExact(r)
		for y := r.Y0; y < r.Y1; y++ {
			for i := range dirty.Row(y, r.X0, r.X1) {
				dirty.Row(y, r.X0, r.X1)[i] = Pixel{I: 0.25, A: 0.5}
			}
		}
		old := &dirty.Row(r.Y0, r.X0, r.X1)[0]
		dirty.Release()

		im := NewImage(64, 64)
		im.GrowExact(Rect{X0: 10, Y0: 10, X1: 50, Y1: 40}) // the same area elsewhere
		reused = reused || &im.Row(10, 10, 50)[0] == old
		if n := im.CountNonBlank(im.Full()); n != 0 {
			t.Fatalf("try %d: %d non-blank pixels in a freshly grown image", try, n)
		}
		im.Release()
	}
	if !reused {
		t.Error("released storage was never handed to the next image of its size class")
	}
}

// Grow, CopyFrom and Clone draw from the pool too, and each copies
// exactly the source's pixels into blank storage.
func TestReallocationsCopyIntoBlankStorage(t *testing.T) {
	src := NewImage(64, 64)
	src.Set(20, 20, Pixel{I: 0.5, A: 0.5})
	src.GrowExact(Rect{X0: 16, Y0: 16, X1: 48, Y1: 48})
	for try := 0; try < 20; try++ {
		dirty := NewImageBounds(64, 64, Rect{X0: 0, Y0: 0, X1: 64, Y1: 64})
		for y := 0; y < 64; y++ {
			for i := range dirty.Row(y, 0, 64) {
				dirty.Row(y, 0, 64)[i] = Pixel{I: 1, A: 1}
			}
		}
		dirty.Release()
		var cp Image
		cp.CopyFrom(src)
		for name, im := range map[string]*Image{"CopyFrom": &cp, "Clone": src.Clone()} {
			if d := im.MaxAbsDiff(src, src.Full()); d != 0 || im.Bounds() != src.Bounds() {
				t.Fatalf("%s: differs from its source by %g, bounds %v want %v", name, d, im.Bounds(), src.Bounds())
			}
			im.Release()
		}
		g := NewImage(64, 64)
		g.Set(1, 1, Pixel{I: 1, A: 1})
		g.Grow(Rect{X0: 0, Y0: 0, X1: 60, Y1: 60})
		if n := g.CountNonBlank(g.Full()); n != 1 {
			t.Fatalf("Grow: %d non-blank pixels, want 1", n)
		}
		g.Release()
	}
}

// A released image is blank with empty Bounds over the same frame, and
// releasing it again, or growing and releasing it again, is harmless.
func TestReleaseIsIdempotent(t *testing.T) {
	im := NewImage(32, 16)
	im.GrowExact(Rect{X0: 0, Y0: 0, X1: 32, Y1: 16})
	im.Set(4, 4, Pixel{I: 1, A: 1})
	im.Release()
	im.Release()
	if !im.Bounds().Empty() || im.Full() != (Rect{X0: 0, Y0: 0, X1: 32, Y1: 16}) {
		t.Fatalf("released image: bounds %v, full %v", im.Bounds(), im.Full())
	}
	if n := im.CountNonBlank(im.Full()); n != 0 || !im.At(4, 4).Blank() {
		t.Fatalf("released image reads %d non-blank pixels", n)
	}
	if im.Row(4, 0, 32) != nil {
		t.Fatal("released image still hands out a row")
	}
	im.GrowExact(Rect{X0: 2, Y0: 2, X1: 10, Y1: 10})
	if n := im.CountNonBlank(im.Full()); n != 0 {
		t.Fatalf("a released image regrown reads %d non-blank pixels", n)
	}
	im.Release()
	im.Release()
}

// A miss allocates exactly the pixels asked for while the request's
// class and the next hold nothing, so a kept image is never oversized.
// Once the class holds only storage too short for the request, the miss
// allocates the class's full size, which every later request of the
// class fits. The race detector drops pooled items at random, so the
// second case asks for one full-size miss in a handful of attempts.
func TestMissTakesClassSizeOnlyInARecycledClass(t *testing.T) {
	const n = 20000
	idx, size := sizeClass(n)
	drain := func() {
		for i := idx; i <= idx+1; i++ {
			for pixPools[i].Get() != nil {
			}
		}
	}
	drain()
	if pix := allocPixels(n); len(pix) != n || cap(pix) != n {
		t.Fatalf("miss in an empty class: len %d cap %d, want both %d", len(pix), cap(pix), n)
	}
	full := false
	for try := 0; try < 20 && !full; try++ {
		drain()
		releasePixels(make([]Pixel, n-100))
		pix := allocPixels(n)
		if len(pix) != n || (cap(pix) != n && cap(pix) != size) {
			t.Fatalf("try %d: len %d cap %d, want len %d and cap %d or %d", try, len(pix), cap(pix), n, n, size)
		}
		full = cap(pix) == size
	}
	if !full {
		t.Errorf("a miss in a class holding only short storage never took the class size %d", size)
	}
}
