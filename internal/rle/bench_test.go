package rle

import (
	"math/rand"
	"testing"

	"sortlast/internal/frame"
)

func benchPixels(density float64, n int) []frame.Pixel {
	r := rand.New(rand.NewSource(2))
	out := make([]frame.Pixel, n)
	for i := range out {
		if r.Float64() < density {
			a := 0.2 + 0.8*r.Float64()
			out[i] = frame.Pixel{I: a * r.Float64(), A: a}
		}
	}
	return out
}

func BenchmarkEncode(b *testing.B) {
	for _, tc := range []struct {
		name    string
		density float64
	}{{"sparse1pct", 0.01}, {"mid30pct", 0.3}, {"dense90pct", 0.9}} {
		b.Run(tc.name, func(b *testing.B) {
			pixels := benchPixels(tc.density, 384*192)
			b.SetBytes(int64(len(pixels) * frame.PixelBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Encode(pixels)
			}
		})
	}
}

func BenchmarkWalk(b *testing.B) {
	pixels := benchPixels(0.3, 384*192)
	e := Encode(pixels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_ = e.walk(func(int, frame.Pixel) { n++ })
	}
}
