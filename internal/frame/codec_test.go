package frame

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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
		dirty := append(make([]byte, 0, region.Area()*PixelBytes), bytes.Repeat([]byte{0xAB}, region.Area()*PixelBytes)...)

		want := PackPixels(im.PackRegion(region))
		got := EncodeRegion(im, region, dirty[:0])
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

			a, b := NewImage(32, 32), NewImage(32, 32)
			a.StoreRegion(clipped, UnpackPixels(wire, clipped.Area()))
			n := b.StoreWire(tc.region, wire)
			if d := a.MaxAbsDiff(b, a.Full()); d != 0 || a.Bounds() != b.Bounds() {
				t.Fatalf("images differ by %g, bounds %v and %v", d, a.Bounds(), b.Bounds())
			}
			if want := a.CountNonBlank(a.Full()); n != want {
				t.Fatalf("stored %d non-blank pixels, want %d", n, want)
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

// StoreImage into a blank image must leave the bits, Bounds and count
// that CompositeImage behind blank pixels leaves.
func TestStoreImageMatchesCompositeImage(t *testing.T) {
	for _, tc := range codecRegions {
		t.Run(tc.name, func(t *testing.T) {
			src := sparseImage(7, tc.bounds)
			a, b := NewImage(32, 32), NewImage(32, 32)
			wantOps := a.CompositeImage(src, tc.region, false)
			gotOps := b.StoreImage(src, tc.region)
			if gotOps != wantOps || a.Bounds() != b.Bounds() {
				t.Fatalf("stored %d into %v, composited %d into %v", gotOps, b.Bounds(), wantOps, a.Bounds())
			}
			requireSameBits(t, b, a)
		})
	}
}

// requireSameBits fails unless got and want hold bit-identical pixels
// over the whole frame.
func requireSameBits(t *testing.T, got, want *Image) {
	t.Helper()
	for y := 0; y < got.Height(); y++ {
		for x := 0; x < got.Width(); x++ {
			if !sameBits(got.At(x, y), want.At(x, y)) {
				t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, got.At(x, y), want.At(x, y))
			}
		}
	}
}

func sameBits(p, q Pixel) bool {
	return math.Float64bits(p.I) == math.Float64bits(q.I) && math.Float64bits(p.A) == math.Float64bits(q.A)
}

// specialChannels are channel values the row kernels must carry bit for
// bit: signed zeros, subnormals, infinities, quiet and signalling NaNs
// with payloads, full opacity.
var specialChannels = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7FF8_0000_0000_BEEF), math.Float64frombits(0xFFF0_0000_0000_0001),
	1, 0.5,
}

// randomChannel is a special value, a zero or an in-range value.
func randomChannel(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return specialChannels[r.Intn(len(specialChannels))]
	case 1:
		return 0
	}
	return r.Float64()
}

// The row kernels against the scalar operator, pixel by pixel and bit
// for bit: CompositeRow in both orders over arbitrary pixels, StoreRow
// over blank ones as Over(Pixel{}, p), each counting the non-blank
// wire pixels. Where two NaNs meet in one operation, which payload
// survives depends on the operand order the compiler picked, so a
// composite may there yield any NaN; a store meets only one. Rows of 0 to 70 pixels, wire longer than the row (the
// rest is ignored), special values in every channel; wire shorter
// than the row panics.
func TestRowKernelsMatchScalarOver(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			wire := make([]byte, (n+r.Intn(3))*PixelBytes)
			for off := 0; off < len(wire); off += PixelBytes {
				PutPixel(wire[off:], Pixel{I: randomChannel(r), A: randomChannel(r)})
			}
			under := make([]Pixel, n)
			for x := range under {
				under[x] = Pixel{I: randomChannel(r), A: randomChannel(r)}
			}
			for _, k := range []struct {
				name string
				dst  []Pixel
				want func(d, s Pixel) Pixel
				run  func(dst []Pixel) int
			}{
				{"front", slices.Clone(under), func(d, s Pixel) Pixel { return Over(s, d) },
					func(dst []Pixel) int { return CompositeRow(dst, wire, true) }},
				{"behind", slices.Clone(under), Over,
					func(dst []Pixel) int { return CompositeRow(dst, wire, false) }},
				{"store", make([]Pixel, n), Over,
					func(dst []Pixel) int { return StoreRow(dst, wire) }},
			} {
				before := slices.Clone(k.dst)
				got := k.run(k.dst)
				count := 0
				for x, d := range before {
					want := d
					if s := GetPixel(wire[x*PixelBytes:]); !s.Blank() {
						want = k.want(d, s)
						count++
					}
					if !sameBits(k.dst[x], want) && (k.name == "store" || !bothNaN(k.dst[x], want)) {
						t.Fatalf("%s, n=%d: pixel %d = %v (%#x, %#x), want %v (%#x, %#x)", k.name, n, x,
							k.dst[x], math.Float64bits(k.dst[x].I), math.Float64bits(k.dst[x].A),
							want, math.Float64bits(want.I), math.Float64bits(want.A))
					}
				}
				if got != count {
					t.Fatalf("%s, n=%d: counted %d, %d wire pixels are non-blank", k.name, n, got, count)
				}
				if n > 0 {
					// A short slice is refused whatever its capacity:
					// past its length an unclipped slice holds stale
					// bytes, not pixels.
					for _, short := range [][]byte{slices.Clip(wire[:n*PixelBytes-1]), wire[:n*PixelBytes-1]} {
						if !panics(func() { CompositeRow(make([]Pixel, n), short, false) }) ||
							!panics(func() { StoreRow(make([]Pixel, n), short) }) ||
							!panics(func() { PutPixels(short, under) }) {
							t.Fatalf("n=%d: a kernel accepted %d of %d bytes", n, len(short), cap(short))
						}
					}
				}
			}
		}
	}
}

// bothNaN reports whether p and q are NaN in the same channels and
// equal in the others.
func bothNaN(p, q Pixel) bool {
	same := func(a, b float64) bool {
		return math.IsNaN(a) && math.IsNaN(b) || math.Float64bits(a) == math.Float64bits(b)
	}
	return same(p.I, q.I) && same(p.A, q.A)
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
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
		wire := EncodeRegion(src, region, make([]byte, 0, region.Area()*PixelBytes))
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
