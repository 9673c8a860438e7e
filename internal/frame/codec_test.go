package frame

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// sparseImage builds a deterministic random image with the given logical
// bounds inside a 32x32 frame; roughly half the bounded pixels are
// non-blank.
func sparseImage(seed int64, bounds Rect) *Image {
	im := NewImageBounds(32, 32, bounds)
	r := rand.New(rand.NewSource(seed))
	for y := bounds.Y0; y < bounds.Y1; y++ {
		for x := bounds.X0; x < bounds.X1; x++ {
			if r.Intn(2) == 0 {
				im.Set(x, y, Pixel{I: r.Float64(), A: r.Float64()})
			}
		}
	}
	return im
}

// codecRegions are the region/bounds combinations every fused/unfused
// equivalence test walks: contained, clipped by bounds on each side,
// disjoint from bounds, empty, and partially outside the full frame.
var codecRegions = []struct {
	name   string
	bounds Rect
	region Rect
}{
	{"contained", XYWH(4, 4, 16, 16), XYWH(6, 6, 8, 8)},
	{"exact", XYWH(4, 4, 16, 16), XYWH(4, 4, 16, 16)},
	{"clip-left-top", XYWH(8, 8, 12, 12), XYWH(2, 2, 10, 10)},
	{"clip-right-bottom", XYWH(4, 4, 12, 12), XYWH(10, 10, 14, 14)},
	{"straddles-bounds", XYWH(10, 10, 6, 6), XYWH(0, 0, 32, 32)},
	{"disjoint", XYWH(2, 2, 4, 4), XYWH(20, 20, 8, 8)},
	{"empty-region", XYWH(4, 4, 8, 8), Rect{}},
	{"empty-bounds", Rect{}, XYWH(4, 4, 8, 8)},
	{"outside-full", XYWH(20, 20, 12, 12), XYWH(24, 24, 16, 16)},
}

func TestEncodeRegionMatchesPackPixels(t *testing.T) {
	for _, tc := range codecRegions {
		t.Run(tc.name, func(t *testing.T) {
			im := sparseImage(1, tc.bounds)
			want := PackPixels(im.PackRegion(tc.region))
			got := EncodeRegion(im, tc.region, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeRegion differs from PackPixels(PackRegion): %d vs %d bytes",
					len(got), len(want))
			}
		})
	}
}

func TestEncodeRegionClearsDirtyScratch(t *testing.T) {
	// A reused buffer full of garbage must not leak into blank flanks of
	// a region that sticks out of the image bounds, nor survive in one
	// inside them, which is written without being cleared first.
	im := sparseImage(2, XYWH(10, 10, 6, 6))
	for _, region := range []Rect{XYWH(4, 4, 20, 20), XYWH(11, 11, 4, 5)} {
		var c Codec
		dirty := c.Grab(region.Area() * PixelBytes)
		dirty = append(dirty, bytes.Repeat([]byte{0xAB}, region.Area()*PixelBytes)...)
		c.Retain(dirty)

		want := PackPixels(im.PackRegion(region))
		got := EncodeRegion(im, region, c.Grab(region.Area()*PixelBytes))
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: EncodeRegion into dirty scratch differs from clean encoding", region)
		}
	}
}

func TestCompositeWireMatchesCompositeRegion(t *testing.T) {
	for _, tc := range codecRegions {
		for _, front := range []bool{false, true} {
			t.Run(tc.name, func(t *testing.T) {
				src := sparseImage(3, tc.bounds.Union(tc.region).Intersect(XYWH(0, 0, 32, 32)))
				wire := EncodeRegion(src, tc.region, nil)

				a := sparseImage(4, XYWH(8, 8, 16, 16))
				b := a.Clone()
				clipped := tc.region.Intersect(a.Full())
				wantOps := a.CompositeRegion(clipped, UnpackPixels(wire, clipped.Area()), front)
				gotOps := b.CompositeWire(tc.region, wire, front)
				if gotOps != wantOps {
					t.Fatalf("ops = %d, want %d", gotOps, wantOps)
				}
				if d := a.MaxAbsDiff(b, a.Full()); d != 0 {
					t.Fatalf("images differ by %g", d)
				}
			})
		}
	}
}

func TestStoreWireMatchesStoreRegion(t *testing.T) {
	for _, tc := range codecRegions {
		t.Run(tc.name, func(t *testing.T) {
			src := sparseImage(5, tc.bounds)
			wire := EncodeRegion(src, tc.region, nil)
			clipped := tc.region.Intersect(src.Full())

			a := sparseImage(6, XYWH(8, 8, 16, 16))
			b := a.Clone()
			a.StoreRegion(clipped, UnpackPixels(wire, clipped.Area()))
			b.StoreWire(tc.region, wire)
			if d := a.MaxAbsDiff(b, a.Full()); d != 0 {
				t.Fatalf("images differ by %g", d)
			}
		})
	}
}

func TestCompositeImageMatchesCompositeRegion(t *testing.T) {
	for _, tc := range codecRegions {
		for _, front := range []bool{false, true} {
			t.Run(tc.name, func(t *testing.T) {
				src := sparseImage(7, tc.bounds)
				a := sparseImage(8, XYWH(8, 8, 16, 16))
				b := a.Clone()
				clipped := tc.region.Intersect(a.Full())
				wantOps := a.CompositeRegion(clipped, src.PackRegion(clipped), front)
				gotOps := b.CompositeImage(src, tc.region, front)
				if gotOps != wantOps {
					t.Fatalf("ops = %d, want %d", gotOps, wantOps)
				}
				if d := a.MaxAbsDiff(b, a.Full()); d != 0 {
					t.Fatalf("images differ by %g", d)
				}
			})
		}
	}
}

// TestFusedUnfusedQuick is the property test: for arbitrary sparse images
// and regions, one full encode-ship-composite exchange through the fused
// path produces a bit-identical image and wire bytes to the unfused
// reference path.
func TestFusedUnfusedQuick(t *testing.T) {
	property := func(seed int64, x0, y0, w, h int, front bool) bool {
		r := rand.New(rand.NewSource(seed))
		norm := func(v, span int) int {
			if v < 0 {
				v = -v
			}
			return v % span
		}
		region := XYWH(norm(x0, 28), norm(y0, 28), norm(w, 12)+1, norm(h, 12)+1)
		srcBounds := XYWH(r.Intn(20), r.Intn(20), r.Intn(12)+1, r.Intn(12)+1)
		dstBounds := XYWH(r.Intn(20), r.Intn(20), r.Intn(12)+1, r.Intn(12)+1)

		src := sparseImage(seed+1, srcBounds)
		dst := sparseImage(seed+2, dstBounds)
		ref := dst.Clone()

		// Unfused reference: materialize pixels, pack, unpack, composite.
		// PackRegion clips to the frame, so the reference must too.
		clipped := region.Intersect(src.Full())
		wireRef := PackPixels(src.PackRegion(region))
		ref.CompositeRegion(clipped, UnpackPixels(wireRef, clipped.Area()), front)

		// Fused path through reusable scratch.
		var c Codec
		wire := EncodeRegion(src, region, c.Grab(region.Area()*PixelBytes))
		dst.CompositeWire(region, wire, front)

		if !bytes.Equal(wire, wireRef) {
			return false
		}
		// Bit-identical comparison over the whole frame (MaxAbsDiff would
		// accept -0 vs +0; compare stored values exactly).
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				if dst.At(x, y) != ref.At(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowKeepsBoundsExact(t *testing.T) {
	// Grow over-allocates backing storage but must never inflate the
	// logical bounds: wire-format producers size messages from Bounds().
	im := NewImage(64, 64)
	im.Set(10, 10, Pixel{I: 1, A: 1})
	if im.Bounds() != XYWH(10, 10, 1, 1) {
		t.Fatalf("bounds = %v, want 1x1 at (10,10)", im.Bounds())
	}
	im.Set(12, 11, Pixel{I: 1, A: 1})
	want := XYWH(10, 10, 3, 2)
	if im.Bounds() != want {
		t.Fatalf("bounds = %v, want %v (exact union)", im.Bounds(), want)
	}
	// Pixels inside storage padding but outside bounds must read blank
	// and stay excluded from packing.
	if got := im.PackRegion(XYWH(10, 10, 3, 2)); len(got) != 6 {
		t.Fatalf("pack area = %d, want 6", len(got))
	}
	im.Grow(XYWH(0, 0, 64, 64))
	if im.Bounds() != XYWH(0, 0, 64, 64) {
		t.Fatalf("bounds after full grow = %v", im.Bounds())
	}
	if im.At(10, 10) != (Pixel{I: 1, A: 1}) || im.At(12, 11) != (Pixel{I: 1, A: 1}) {
		t.Fatal("grow lost pixel contents")
	}
}

func TestGrowExact(t *testing.T) {
	im := NewImage(64, 64)
	im.GrowExact(XYWH(8, 8, 4, 4))
	if im.Bounds() != XYWH(8, 8, 4, 4) {
		t.Fatalf("bounds = %v", im.Bounds())
	}
	im.Set(9, 9, Pixel{I: 0.5, A: 0.5})
	im.GrowExact(XYWH(8, 8, 16, 16))
	if im.At(9, 9) != (Pixel{I: 0.5, A: 0.5}) {
		t.Fatal("GrowExact lost contents")
	}
}

func TestCodecGrabRetainReuses(t *testing.T) {
	var c Codec
	buf := c.Grab(128)
	buf = append(buf, make([]byte, 128)...)
	c.Retain(buf)
	again := c.Grab(64)
	if cap(again) < 128 {
		t.Fatalf("Grab after Retain: cap = %d, want >= 128", cap(again))
	}
	if &again[:1][0] != &buf[:1][0] {
		t.Fatal("Grab did not reuse retained storage")
	}
}

func TestCopyFrom(t *testing.T) {
	src := sparseImage(9, XYWH(6, 6, 12, 12))
	var dst Image
	dst.CopyFrom(src)
	if dst.Bounds() != src.Bounds() || dst.Full() != src.Full() {
		t.Fatalf("bounds %v full %v, want %v %v", dst.Bounds(), dst.Full(), src.Bounds(), src.Full())
	}
	if d := dst.MaxAbsDiff(src, src.Full()); d != 0 {
		t.Fatalf("copy differs by %g", d)
	}
	// Grow the working copy past its source and dirty every pixel, then
	// restore. At reads blank outside Bounds whatever the storage holds,
	// so the check regrows over the old rectangle first: a stale pixel
	// left in storage shows there.
	offset := sparseImage(10, XYWH(20, 2, 10, 26))
	moved := NewImage(64, 64)
	moved.Set(50, 45, Pixel{I: 0.25, A: 0.5})
	moved.GrowExact(XYWH(40, 40, 16, 16))
	for _, tc := range []struct {
		name string
		src  *Image
	}{
		{"smaller source", src},
		{"offset source", offset},
		{"smaller source again", src},
		{"source outside the store", moved},
	} {
		grown := dst.Full()
		dst.Grow(grown)
		for y := grown.Y0; y < grown.Y1; y++ {
			row := dst.Row(y, grown.X0, grown.X1)
			for x := range row {
				row[x] = Pixel{I: 1, A: 1}
			}
		}
		dst.CopyFrom(tc.src)
		if dst.Bounds() != tc.src.Bounds() || dst.Full() != tc.src.Full() {
			t.Fatalf("%s: restored bounds %v full %v, want %v %v", tc.name,
				dst.Bounds(), dst.Full(), tc.src.Bounds(), tc.src.Full())
		}
		if d := dst.MaxAbsDiff(tc.src, tc.src.Full()); d != 0 {
			t.Fatalf("%s: restored copy differs by %g", tc.name, d)
		}
		dst.Grow(grown.Intersect(dst.Full()))
		if d := dst.MaxAbsDiff(tc.src, tc.src.Full()); d != 0 {
			t.Fatalf("%s: restore left stale pixels in storage (differs by %g)", tc.name, d)
		}
	}
}
