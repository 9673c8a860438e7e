package frame

import (
	"math"
	"math/rand"
	"testing"
)

func TestImageBlankOutsideBounds(t *testing.T) {
	im := NewImage(16, 16)
	if !im.At(5, 5).Blank() {
		t.Error("unallocated pixel must be blank")
	}
	im.Set(5, 5, Pixel{I: 0.5, A: 0.5})
	if im.At(5, 5) != (Pixel{I: 0.5, A: 0.5}) {
		t.Error("Set/At round trip failed")
	}
	if !im.At(0, 0).Blank() {
		t.Error("other pixels stay blank")
	}
	if im.Bounds() != XYWH(5, 5, 1, 1) {
		t.Errorf("bounds = %v, want 1x1 at (5,5)", im.Bounds())
	}
}

func TestImageGrowPreservesContents(t *testing.T) {
	im := NewImage(32, 32)
	r := rand.New(rand.NewSource(7))
	type pt struct {
		x, y int
		p    Pixel
	}
	var pts []pt
	for i := 0; i < 100; i++ {
		x, y := r.Intn(32), r.Intn(32)
		p := Pixel{I: r.Float64(), A: r.Float64()}
		im.Set(x, y, p)
		pts = append(pts, pt{x, y, p})
	}
	im.Grow(XYWH(0, 0, 32, 32))
	seen := map[[2]int]Pixel{}
	for _, q := range pts {
		seen[[2]int{q.x, q.y}] = q.p
	}
	for k, want := range seen {
		if got := im.At(k[0], k[1]); got != want {
			t.Fatalf("pixel (%d,%d) = %v, want %v after grow", k[0], k[1], got, want)
		}
	}
}

func TestImageRow(t *testing.T) {
	im := NewImageBounds(16, 16, XYWH(4, 4, 8, 8))
	im.Set(6, 5, Pixel{I: 1, A: 1})
	row := im.Row(5, 0, 16)
	if len(row) != 8 {
		t.Fatalf("row length = %d, want 8 (clipped to bounds)", len(row))
	}
	if row[2] != (Pixel{I: 1, A: 1}) {
		t.Error("row content misaligned")
	}
	if im.Row(0, 0, 16) != nil {
		t.Error("row outside bounds must be nil")
	}
	if im.Row(5, 12, 16) != nil {
		t.Error("empty x range must be nil")
	}
}

func TestBoundingRect(t *testing.T) {
	im := NewImage(64, 64)
	full := XYWH(0, 0, 64, 64)
	br, scanned := im.BoundingRect(full)
	if !br.Empty() {
		t.Errorf("bounding rect of blank image = %v, want empty", br)
	}
	if scanned != 64*64 {
		t.Errorf("scanned = %d, want %d", scanned, 64*64)
	}

	im.Set(10, 20, Pixel{I: 0.1, A: 0.1})
	im.Set(40, 50, Pixel{I: 0.2, A: 0.2})
	im.Set(3, 33, Pixel{I: 0.3, A: 0.3})
	br, _ = im.BoundingRect(full)
	want := Rect{3, 20, 41, 51}
	if br != want {
		t.Errorf("bounding rect = %v, want %v", br, want)
	}

	// Restricting the scanned region restricts the result.
	br, _ = im.BoundingRect(XYWH(0, 0, 32, 32))
	if br != (Rect{10, 20, 11, 21}) {
		t.Errorf("clipped bounding rect = %v", br)
	}
}

// The bounding rectangle is minimal: every edge touches a non-blank pixel,
// and it covers all non-blank pixels. Checked against brute force, over
// the frame and over a part of it, on a few scattered pixels (the scan
// reads whole blank margins) and on near-full coverage (it stops at the
// rectangle's edges).
func TestBoundingRectMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		w, h := 1+r.Intn(40), 1+r.Intn(40)
		im := NewImage(w, h)
		n := r.Intn(20)
		if trial%2 == 1 {
			n = r.Intn(3 * w * h)
		}
		for i := 0; i < n; i++ {
			im.Set(r.Intn(w), r.Intn(h), Pixel{I: 0.5, A: 0.5})
		}
		region := im.Full()
		if trial%4 >= 2 {
			x0, y0 := r.Intn(w), r.Intn(h)
			region = Rect{x0, y0, x0 + 1 + r.Intn(w-x0), y0 + 1 + r.Intn(h-y0)}
		}
		got, scanned := im.BoundingRect(region)
		want := ZR
		for y := region.Y0; y < region.Y1; y++ {
			for x := region.X0; x < region.X1; x++ {
				if !im.At(x, y).Blank() {
					want = want.Union(Rect{x, y, x + 1, y + 1})
				}
			}
		}
		if got != want || scanned != region.Area() {
			t.Fatalf("trial %d: bounding rect of %v = %v charging %d pixels, brute force %v",
				trial, region, got, scanned, want)
		}
	}
}

func TestCountNonBlank(t *testing.T) {
	im := NewImage(8, 8)
	for i := 0; i < 5; i++ {
		im.Set(i, i, Pixel{I: 1, A: 1})
	}
	if n := im.CountNonBlank(im.Full()); n != 5 {
		t.Errorf("CountNonBlank = %d, want 5", n)
	}
	if n := im.CountNonBlank(XYWH(0, 0, 2, 2)); n != 2 {
		t.Errorf("CountNonBlank(corner) = %d, want 2", n)
	}
}

func TestPackRegionFillsBlanks(t *testing.T) {
	im := NewImage(16, 16)
	im.Set(5, 5, Pixel{I: 0.5, A: 1})
	region := XYWH(4, 4, 4, 4)
	pk := im.PackRegion(region)
	if len(pk) != 16 {
		t.Fatalf("packed %d pixels, want 16", len(pk))
	}
	for i, p := range pk {
		x, y := region.X0+i%4, region.Y0+i/4
		if x == 5 && y == 5 {
			if p != (Pixel{I: 0.5, A: 1}) {
				t.Fatalf("packed pixel at (5,5) = %v", p)
			}
		} else if !p.Blank() {
			t.Fatalf("packed pixel %d (%d,%d) = %v, want blank", i, x, y, p)
		}
	}
}

func TestCompositeRegionFrontAndBack(t *testing.T) {
	local := Pixel{I: 0.3, A: 0.5}
	incoming := Pixel{I: 0.4, A: 0.6}

	im := NewImage(4, 4)
	im.Set(1, 1, local)
	region := XYWH(0, 0, 4, 4)
	src := make([]Pixel, 16)
	src[1*4+1] = incoming
	ops := im.CompositeRegion(region, src, true)
	if ops != 1 {
		t.Errorf("ops = %d, want 1 (blank incoming pixels skipped)", ops)
	}
	if got, want := im.At(1, 1), Over(incoming, local); !got.NearlyEqual(want, 1e-15) {
		t.Errorf("front composite = %v, want %v", got, want)
	}

	im2 := NewImage(4, 4)
	im2.Set(1, 1, local)
	im2.CompositeRegion(region, src, false)
	if got, want := im2.At(1, 1), Over(local, incoming); !got.NearlyEqual(want, 1e-15) {
		t.Errorf("back composite = %v, want %v", got, want)
	}
}

func TestCompositeRegionPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong src length")
		}
	}()
	im := NewImage(4, 4)
	im.CompositeRegion(XYWH(0, 0, 2, 2), make([]Pixel, 3), true)
}

func TestCloneIsDeep(t *testing.T) {
	im := NewImage(8, 8)
	im.Set(2, 2, Pixel{I: 1, A: 1})
	cp := im.Clone()
	cp.Set(2, 2, Pixel{I: 0.5, A: 0.5})
	if im.At(2, 2) != (Pixel{I: 1, A: 1}) {
		t.Error("clone must not alias original storage")
	}
}

func TestMaxAbsDiffAndNonBlankEqual(t *testing.T) {
	a := NewImage(8, 8)
	b := NewImage(8, 8)
	a.Set(1, 1, Pixel{I: 0.5, A: 0.5})
	b.Set(1, 1, Pixel{I: 0.5 + 1e-6, A: 0.5})
	if d := a.MaxAbsDiff(b, a.Full()); d < 0.9e-6 || d > 1.1e-6 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	if !a.NonBlankEqual(b, a.Full(), 1e-5) {
		t.Error("images within eps must compare equal")
	}
	if a.NonBlankEqual(b, a.Full(), 1e-8) {
		t.Error("images beyond eps must compare unequal")
	}
}

// A NaN pixel is no match for a blank one: MaxAbsDiff must not let
// abs(NaN) > max, which is false, read as no difference.
func TestMaxAbsDiffSeesNaN(t *testing.T) {
	a := NewImage(8, 8)
	b := NewImage(8, 8)
	a.Set(3, 3, Pixel{I: math.NaN(), A: math.NaN()})
	b.Set(3, 3, Pixel{})
	if d := a.MaxAbsDiff(b, a.Full()); !(d > 1e-9) {
		t.Errorf("MaxAbsDiff(NaN pixel, blank) = %g, want above 1e-9", d)
	}
	if d := b.MaxAbsDiff(a, a.Full()); !(d > 1e-9) {
		t.Errorf("MaxAbsDiff(blank, NaN pixel) = %g, want above 1e-9", d)
	}
	if a.NonBlankEqual(b, a.Full(), 1e-9) {
		t.Error("NonBlankEqual matched a NaN pixel with a blank one")
	}
}

func TestAtPanicsOutsideFullFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic reading outside full frame")
		}
	}()
	NewImage(4, 4).At(4, 0)
}

// Fit narrows Bounds over blank margins without touching the storage,
// and releases the storage when nothing is left.
func TestFit(t *testing.T) {
	im := NewImageBounds(32, 32, XYWH(4, 4, 20, 20))
	im.Set(9, 8, Pixel{I: 0.5, A: 0.5})
	im.Set(11, 13, Pixel{I: 0.25, A: 0.5})
	row := im.Row(8, 4, 24)
	im.Fit(XYWH(8, 8, 30, 6)) // reaches past Bounds: cut to them
	if want := XYWH(8, 8, 16, 6); im.Bounds() != want {
		t.Fatalf("bounds = %v, want %v", im.Bounds(), want)
	}
	if &im.Row(8, 9, 10)[0] != &row[5] {
		t.Fatal("Fit moved the storage")
	}
	if im.At(9, 8) != (Pixel{I: 0.5, A: 0.5}) || im.At(11, 13) != (Pixel{I: 0.25, A: 0.5}) {
		t.Fatal("Fit lost pixels inside its rectangle")
	}
	im.Set(9, 8, Pixel{})
	im.Set(11, 13, Pixel{})
	im.Fit(XYWH(0, 0, 4, 4)) // disjoint from Bounds
	if !im.Bounds().Empty() || im.pix != nil {
		t.Fatalf("empty fit: bounds %v, %d pixels of storage kept", im.Bounds(), len(im.pix))
	}
}
