// Package render turns subvolumes into sparse subimages — the rendering
// phase of the sort-last pipeline. The primary renderer is an
// orthographic ray caster whose sample positions are globally aligned:
// every rank samples the same world-space points along a ray regardless
// of which box it owns, so compositing the per-box segment images in
// depth order reproduces the serial rendering of the whole volume.
package render

import (
	"math"

	"sortlast/internal/frame"
	"sortlast/internal/volume"
)

// Camera is an orthographic camera looking along Dir with the image plane
// spanned by U and V through Center. World coordinates are voxel
// coordinates of the rendered volume.
type Camera struct {
	W, H   int        // image size in pixels
	U, V   [3]float64 // image-plane basis (unit, orthogonal)
	Dir    [3]float64 // ray direction (unit)
	Center [3]float64 // look-at point, projected to the image center
	Scale  float64    // world units per pixel
}

// NewCamera builds a camera framing the given volume bounds into a w x h
// image, viewed along +z after rotating the view by rotX degrees about
// the x axis and then rotY degrees about the y axis — the "rotation of a
// viewing point" the paper studies. The volume diagonal fits the smaller
// image dimension with a small margin under any rotation.
func NewCamera(w, h int, bounds volume.Box, rotX, rotY float64) *Camera {
	cam := &Camera{
		W: w, H: h,
		U:      [3]float64{1, 0, 0},
		V:      [3]float64{0, 1, 0},
		Dir:    [3]float64{0, 0, 1},
		Center: bounds.Center(),
	}
	rx := rotX * math.Pi / 180
	ry := rotY * math.Pi / 180
	cam.U = rotY3(rotX3(cam.U, rx), ry)
	cam.V = rotY3(rotX3(cam.V, rx), ry)
	cam.Dir = rotY3(rotX3(cam.Dir, rx), ry)

	diag := math.Sqrt(float64(bounds.Dx()*bounds.Dx() +
		bounds.Dy()*bounds.Dy() + bounds.Dz()*bounds.Dz()))
	minDim := w
	if h < minDim {
		minDim = h
	}
	cam.Scale = diag / (0.92 * float64(minDim))
	return cam
}

// PlanePoint returns the world-space point of pixel (px, py) on the image
// plane through Center (ray parameter t = 0).
func (c *Camera) PlanePoint(px, py int) [3]float64 {
	du := (float64(px) + 0.5 - float64(c.W)/2) * c.Scale
	dv := (float64(py) + 0.5 - float64(c.H)/2) * c.Scale
	return [3]float64{
		c.Center[0] + du*c.U[0] + dv*c.V[0],
		c.Center[1] + du*c.U[1] + dv*c.V[1],
		c.Center[2] + du*c.U[2] + dv*c.V[2],
	}
}

// Project returns the continuous pixel coordinates of a world point.
func (c *Camera) Project(p [3]float64) (fx, fy float64) {
	q := [3]float64{p[0] - c.Center[0], p[1] - c.Center[1], p[2] - c.Center[2]}
	fx = dot(q, c.U)/c.Scale + float64(c.W)/2
	fy = dot(q, c.V)/c.Scale + float64(c.H)/2
	return fx, fy
}

// Footprint returns the image-space rectangle covering the projection of
// a voxel box, padded by one pixel and clipped to the frame. Ranks
// allocate their subimages over this rectangle.
func (c *Camera) Footprint(b volume.Box) frame.Rect {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, corner := range b.Corners() {
		fx, fy := c.Project(corner)
		minX, maxX = math.Min(minX, fx), math.Max(maxX, fx)
		minY, maxY = math.Min(minY, fy), math.Max(maxY, fy)
	}
	r := frame.Rect{
		X0: int(math.Floor(minX)) - 1, Y0: int(math.Floor(minY)) - 1,
		X1: int(math.Ceil(maxX)) + 1, Y1: int(math.Ceil(maxY)) + 1,
	}
	return r.Intersect(frame.Rect{X1: c.W, Y1: c.H})
}

// rayBox intersects the ray plane + t*Dir with a box using the slab
// method and returns the parameter interval; ok is false when the ray
// misses. The interval is widened by a half step of slack at the call
// site, with exact membership re-checked per sample.
func (c *Camera) rayBox(origin [3]float64, b volume.Box) (tMin, tMax float64, ok bool) {
	tMin, tMax = math.Inf(-1), math.Inf(1)
	for a := 0; a < 3; a++ {
		lo, hi := float64(b.Lo[a]), float64(b.Hi[a])
		d := c.Dir[a]
		if d == 0 {
			if origin[a] < lo || origin[a] >= hi {
				return 0, 0, false
			}
			continue
		}
		t0 := (lo - origin[a]) / d
		t1 := (hi - origin[a]) / d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tMin {
			tMin = t0
		}
		if t1 < tMax {
			tMax = t1
		}
	}
	return tMin, tMax, tMin <= tMax
}

func rotX3(p [3]float64, a float64) [3]float64 {
	s, c := math.Sin(a), math.Cos(a)
	return [3]float64{p[0], c*p[1] - s*p[2], s*p[1] + c*p[2]}
}

func rotY3(p [3]float64, a float64) [3]float64 {
	s, c := math.Sin(a), math.Cos(a)
	return [3]float64{c*p[0] + s*p[2], p[1], -s*p[0] + c*p[2]}
}

func dot(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }
