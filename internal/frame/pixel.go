// Package frame provides the image-space data structures used by the
// sort-last-sparse compositing pipeline: pixels carrying intensity and
// opacity, half-open rectangles, sparse sub-images with an owned region,
// the front-to-back "over" operator, bounding-rectangle scans, and the
// 16-byte-per-pixel wire format the paper's cost equations assume.
package frame

import (
	"encoding/binary"
	"math"
)

// Pixel is one sample of the intermediate image produced by the renderer.
//
// Following the paper (§3.1), a volume-rendered pixel consists of an
// intensity and an opacity, each a float64, for a wire size of exactly
// 16 bytes. Intensity is the opacity-weighted accumulated gray value in
// [0, 1]; opacity (alpha) is in [0, 1].
type Pixel struct {
	I float64 // accumulated, opacity-weighted intensity
	A float64 // accumulated opacity (alpha)
}

// PixelBytes is the wire size of one pixel, as assumed by the paper's
// communication-cost equations (Eq. 2, 4, 6, 8).
const PixelBytes = 16

// Blank reports whether the pixel carries no contribution. The renderer
// never produces a non-zero intensity with zero opacity, so opacity alone
// decides blankness; this is the background/foreground test used by the
// RLE codec and the bounding-rectangle scan.
func (p Pixel) Blank() bool { return p.A == 0 && p.I == 0 }

// Over composites pixel front over pixel back using the standard
// front-to-back over operator on opacity-weighted intensities:
//
//	I = I_f + (1 - A_f) * I_b
//	A = A_f + (1 - A_f) * A_b
//
// Over is associative, which is what makes tree- and swap-structured
// parallel compositing produce the same image as sequential front-to-back
// compositing.
func Over(front, back Pixel) Pixel {
	t := 1 - front.A
	return Pixel{
		I: front.I + t*back.I,
		A: front.A + t*back.A,
	}
}

// OverInto composites front over *back, storing the result in back.
// It is the allocation-free variant used in inner compositing loops.
func OverInto(front Pixel, back *Pixel) {
	t := 1 - front.A
	back.I = front.I + t*back.I
	back.A = front.A + t*back.A
}

// clamp returns the pixel with both channels clamped to [0, 1]. The over
// operator keeps values in range for in-range inputs; clamp guards the
// final conversion to a displayable image against accumulated rounding.
func (p Pixel) clamp() Pixel {
	return Pixel{I: clamp01(p.I), A: clamp01(p.A)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Gray converts the pixel to an 8-bit gray value against a black
// background, matching the paper's 8-bit gray-level output images.
func (p Pixel) Gray() uint8 {
	v := clamp01(p.I)
	return uint8(math.Round(v * 255))
}

// NearlyEqual reports whether two pixels agree within eps per channel.
// Parallel compositing regroups floating-point additions, so exact
// equality with a serial rendering cannot be expected; eps bounds the
// regrouping error.
func (p Pixel) NearlyEqual(q Pixel, eps float64) bool {
	return math.Abs(p.I-q.I) <= eps && math.Abs(p.A-q.A) <= eps
}

// PutPixel encodes p into buf, which must be at least PixelBytes long,
// using little-endian IEEE 754 doubles. It returns the number of bytes
// written.
func PutPixel(buf []byte, p Pixel) int {
	binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(p.I))
	binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(p.A))
	return PixelBytes
}

// GetPixel decodes a pixel previously encoded with PutPixel.
func GetPixel(buf []byte) Pixel {
	return Pixel{
		I: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8])),
		A: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])),
	}
}

// PackPixels encodes pixels into a fresh byte slice in wire format.
func PackPixels(pixels []Pixel) []byte {
	buf := make([]byte, len(pixels)*PixelBytes)
	off := 0
	for _, p := range pixels {
		off += PutPixel(buf[off:], p)
	}
	return buf
}

// UnpackPixels decodes count pixels from buf. It panics if buf is too
// short, which indicates a framing bug in the transport layer.
func UnpackPixels(buf []byte, count int) []Pixel {
	pixels := make([]Pixel, count)
	for i := range pixels {
		pixels[i] = GetPixel(buf[i*PixelBytes:])
	}
	return pixels
}
