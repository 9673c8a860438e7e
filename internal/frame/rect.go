package frame

import "fmt"

// Rect is a half-open axis-aligned rectangle in image space:
// x in [X0, X1), y in [Y0, Y1). An empty rectangle has X1 <= X0 or
// Y1 <= Y0; ZR is the canonical empty rectangle.
//
// The paper transmits a bounding rectangle as four short integers (8
// bytes, Eq. 4 and 8); Rect is the in-memory form and RectBytes the wire
// size.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// RectBytes is the wire size of a rectangle: four 16-bit coordinates,
// exactly the "8" in the paper's Eq. (4) and (8).
const RectBytes = 8

// ZR is the canonical zero (empty) rectangle.
var ZR Rect

// XYWH builds a rectangle from an origin and a size.
func XYWH(x, y, w, h int) Rect { return Rect{x, y, x + w, y + h} }

// Dx returns the width of r.
func (r Rect) Dx() int { return r.X1 - r.X0 }

// Dy returns the height of r.
func (r Rect) Dy() int { return r.Y1 - r.Y0 }

// Area returns the number of pixels in r, zero when empty.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Dx() * r.Dy()
}

// Empty reports whether r contains no pixels.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Canon returns the canonical form of r: empty rectangles collapse to ZR
// so that equality tests on empty rectangles behave.
func (r Rect) Canon() Rect {
	if r.Empty() {
		return ZR
	}
	return r
}

// Contains reports whether the pixel (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// ContainsRect reports whether s lies entirely inside r. An empty s is
// contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Intersect returns the largest rectangle contained in both r and s.
func (r Rect) Intersect(s Rect) Rect {
	if r.X0 < s.X0 {
		r.X0 = s.X0
	}
	if r.Y0 < s.Y0 {
		r.Y0 = s.Y0
	}
	if r.X1 > s.X1 {
		r.X1 = s.X1
	}
	if r.Y1 > s.Y1 {
		r.Y1 = s.Y1
	}
	return r.Canon()
}

// Union returns the smallest rectangle containing both r and s. The
// paper's step 21 ("calculate the new local bounding rectangle by
// combining the local bounding rectangle with the receiving bounding
// rectangle") is exactly this operation, and it is O(1).
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s.Canon()
	}
	if s.Empty() {
		return r
	}
	if s.X0 < r.X0 {
		r.X0 = s.X0
	}
	if s.Y0 < r.Y0 {
		r.Y0 = s.Y0
	}
	if s.X1 > r.X1 {
		r.X1 = s.X1
	}
	if s.Y1 > r.Y1 {
		r.Y1 = s.Y1
	}
	return r
}

// Overlaps reports whether r and s share at least one pixel.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// splitH splits r along its horizontal centerline into a top half
// (y in [Y0, mid)) and a bottom half (y in [mid, Y1)). When the height is
// odd the top half is the smaller one, matching integer centerline
// division.
func (r Rect) splitH() (top, bottom Rect) {
	mid := r.Y0 + r.Dy()/2
	top = Rect{r.X0, r.Y0, r.X1, mid}.Canon()
	bottom = Rect{r.X0, mid, r.X1, r.Y1}.Canon()
	return top, bottom
}

// splitV splits r along its vertical centerline into a left half
// (x in [X0, mid)) and a right half (x in [mid, X1)).
func (r Rect) splitV() (left, right Rect) {
	mid := r.X0 + r.Dx()/2
	left = Rect{r.X0, r.Y0, mid, r.Y1}.Canon()
	right = Rect{mid, r.Y0, r.X1, r.Y1}.Canon()
	return left, right
}

// Split divides r along the axis-alternating centerline used by
// binary-swap: even stages split horizontally (scanline-contiguous
// halves), odd stages vertically. It returns the "low" half (kept by the
// lower-ranked partner) and the "high" half.
func (r Rect) Split(stage int) (low, high Rect) {
	if stage%2 == 0 {
		return r.splitH()
	}
	return r.splitV()
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// PutRect encodes r as four little-endian int16 values (the paper's "four
// short integers"). Coordinates must fit in int16; image sizes in this
// system (≤ 32767) always do. It returns RectBytes.
func PutRect(buf []byte, r Rect) int {
	putI16 := func(off int, v int) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
	}
	putI16(0, r.X0)
	putI16(2, r.Y0)
	putI16(4, r.X1)
	putI16(6, r.Y1)
	return RectBytes
}

// GetRect decodes a rectangle encoded with PutRect.
func GetRect(buf []byte) Rect {
	getI16 := func(off int) int {
		return int(int16(uint16(buf[off]) | uint16(buf[off+1])<<8))
	}
	return Rect{getI16(0), getI16(2), getI16(4), getI16(6)}
}
