package frame

import "testing"

// The pixel pool holds 1 KiB of pixels (64) up to a 2048x2048 frame,
// each size in a class that holds it, wastes under a quarter and serves
// no other size, and a class's own size is its fixed point, so storage
// cut to a class size goes back to the same class.
func TestPixelSizeClass(t *testing.T) {
	const lo, hi = 64, 2048 * 2048
	seen, top := map[int]int{}, -1
	for _, n := range []int{lo, lo + 1, 80, 81, 4096, 65536 + 1, hi - 1, hi} {
		idx, size, ok := pixels.Class(n)
		if !ok {
			t.Fatalf("Class(%d): not pooled", n)
		}
		if size < n || size-n > size/4 {
			t.Errorf("Class(%d) = %d: must hold n and waste under a quarter", n, size)
		}
		if idx < 0 || idx < top {
			t.Fatalf("Class(%d): index %d out of order after %d", n, idx, top)
		}
		top = idx
		if other, ok := seen[idx]; ok && other != size {
			t.Errorf("class %d serves both %d and %d pixels", idx, other, size)
		}
		seen[idx] = size
		if i2, s2, _ := pixels.Class(size); i2 != idx || s2 != size {
			t.Errorf("Class(%d) = (%d,%d), want the class itself (%d,%d)", size, i2, s2, idx, size)
		}
	}
	for _, n := range []int{lo - 1, hi + 1} {
		if _, _, ok := pixels.Class(n); ok {
			t.Errorf("Class(%d): pooled outside the range", n)
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
