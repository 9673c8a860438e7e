package frame

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchImage(density float64, w, h int) *Image {
	r := rand.New(rand.NewSource(1))
	im := NewImageBounds(w, h, XYWH(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if r.Float64() < density {
				a := 0.2 + 0.8*r.Float64()
				im.Set(x, y, Pixel{I: a * r.Float64(), A: a})
			}
		}
	}
	return im
}

func BenchmarkOver(b *testing.B) {
	f := Pixel{I: 0.3, A: 0.5}
	bk := Pixel{I: 0.6, A: 0.7}
	var out Pixel
	for i := 0; i < b.N; i++ {
		out = Over(f, bk)
	}
	_ = out
}

func BenchmarkCompositeRegion(b *testing.B) {
	src := benchImage(0.3, 384, 192)
	pixels := src.PackRegion(src.Full())
	dst := benchImage(0.3, 384, 192)
	region := dst.Full()
	b.SetBytes(int64(len(pixels) * PixelBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.CompositeRegion(region, pixels, true)
	}
}

func BenchmarkBoundingRect(b *testing.B) {
	for _, density := range []float64{0.01, 0.3} {
		name := "sparse"
		if density > 0.1 {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			im := benchImage(density, 384, 384)
			b.SetBytes(384 * 384 * PixelBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im.BoundingRect(im.Full())
			}
		})
	}
}

// BenchmarkCopyFrom restores a working image whose Bounds grew past its
// source's, as a standing frame does before every composite: the source
// is a subimage fitted to its foreground, the working image was regrown
// over the subimage's footprint by the previous composite.
func BenchmarkCopyFrom(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	fg := XYWH(96, 112, 160, 144)
	src := NewImageBounds(384, 384, fg)
	for y := fg.Y0; y < fg.Y1; y++ {
		for x := fg.X0; x < fg.X1; x++ {
			if r.Float64() < 0.3 {
				src.Set(x, y, Pixel{I: 0.5 * r.Float64(), A: 0.5})
			}
		}
	}
	foot := XYWH(64, 64, 256, 256)
	var dst Image
	b.SetBytes(int64(fg.Area() * PixelBytes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.GrowExact(foot)
		dst.CopyFrom(src)
	}
}

func BenchmarkPackUnpackPixels(b *testing.B) {
	im := benchImage(0.5, 384, 192)
	pixels := im.PackRegion(im.Full())
	b.SetBytes(int64(len(pixels) * PixelBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := PackPixels(pixels)
		UnpackPixels(buf, len(pixels))
	}
}

// BenchmarkSetGrowth is the regression guard for incremental Set growth:
// scattering pixels one by one across a frame must reallocate storage
// O(log n) times (geometric over-allocation), not once per Set.
func BenchmarkSetGrowth(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	pts := make([][2]int, 4096)
	for i := range pts {
		pts[i] = [2]int{r.Intn(384), r.Intn(384)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im := NewImage(384, 384)
		for _, p := range pts {
			im.Set(p[0], p[1], Pixel{I: 0.5, A: 0.5})
		}
	}
}

// BenchmarkEncodeRegion compares one fused encode against the unfused
// PackRegion+PackPixels pair it replaces.
func BenchmarkEncodeRegion(b *testing.B) {
	im := benchImage(0.5, 384, 192)
	region := im.Full()
	b.SetBytes(int64(region.Area() * PixelBytes))
	b.Run("fused", func(b *testing.B) {
		buf := make([]byte, 0, region.Area()*PixelBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = EncodeRegion(im, region, buf[:0])
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PackPixels(im.PackRegion(region))
		}
	})
}

// BenchmarkCompositeWire compares compositing straight from wire bytes
// against the UnpackPixels+CompositeRegion pair it replaces.
func BenchmarkCompositeWire(b *testing.B) {
	src := benchImage(0.3, 384, 192)
	region := src.Full()
	wire := EncodeRegion(src, region, nil)
	dst := benchImage(0.3, 384, 192)
	b.SetBytes(int64(len(wire)))
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst.CompositeWire(region, wire, true)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst.CompositeRegion(region, UnpackPixels(wire, region.Area()), true)
		}
	})
}

// BenchmarkRowKernels times the wire-to-pixel row kernels on 384-pixel
// rows, all foreground and 30 % foreground at random: CompositeRow in
// each order over non-blank pixels, and StoreRow against CompositeRow
// behind blank pixels, the write it replaces wherever the destination
// is known blank.
func BenchmarkRowKernels(b *testing.B) {
	const w = 384
	for _, density := range []float64{1, 0.3} {
		src := benchImage(density, w, 1)
		wire := EncodeRegion(src, src.Full(), nil)
		under := benchImage(0.3, w, 1).Row(0, 0, w)
		blank := make([]Pixel, w)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"composite-front", func() { CompositeRow(under, wire, true) }},
			{"composite-behind", func() { CompositeRow(under, wire, false) }},
			{"composite-blank", func() { clear(blank); CompositeRow(blank, wire, false) }},
			{"store-blank", func() { clear(blank); StoreRow(blank, wire) }},
		} {
			b.Run(fmt.Sprintf("fg%.0f/%s", 100*density, k.name), func(b *testing.B) {
				b.SetBytes(int64(len(wire)))
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}
