// Package volume provides the volumetric data substrate: a uint8 scalar
// grid with trilinear sampling, voxel-space boxes, and procedural
// generators reproducing the screen-space character of the paper's four
// CT test samples (Engine_low, Engine_high, Head, Cube).
package volume

import (
	"fmt"
	"math"
	"sync"
)

// Volume is a regular scalar grid of 8-bit samples, x-fastest layout.
// Voxel (x, y, z) sits at index (z*NY+y)*NX+x. World coordinates coincide
// with voxel coordinates: the volume occupies [0,NX)x[0,NY)x[0,NZ).
type Volume struct {
	NX, NY, NZ int
	Data       []uint8

	// Lazily built macro-cell min/max summary (see MacroCells). Lives
	// on the volume so every renderer sharing the immutable dataset —
	// the harness cache, the serving tier's resident worlds — shares
	// one build.
	macroOnce sync.Once
	macro     *MacroGrid
}

// New allocates a zeroed volume of the given dimensions.
func New(nx, ny, nz int) *Volume {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("volume: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return &Volume{NX: nx, NY: ny, NZ: nz, Data: make([]uint8, nx*ny*nz)}
}

// index returns the linear index of voxel (x, y, z), which must be in
// range.
func (v *Volume) index(x, y, z int) int { return (z*v.NY+y)*v.NX + x }

// At returns the sample at (x, y, z); coordinates outside the grid read
// as 0 (empty space), which keeps sampling loops free of bounds branches.
func (v *Volume) At(x, y, z int) uint8 {
	if x < 0 || y < 0 || z < 0 || x >= v.NX || y >= v.NY || z >= v.NZ {
		return 0
	}
	return v.Data[v.index(x, y, z)]
}

// Set stores value at (x, y, z); out-of-range coordinates are ignored,
// letting generators draw shapes that overlap the boundary.
func (v *Volume) Set(x, y, z int, value uint8) {
	if x < 0 || y < 0 || z < 0 || x >= v.NX || y >= v.NY || z >= v.NZ {
		return
	}
	v.Data[v.index(x, y, z)] = value
}

// Bounds returns the voxel-space box covering the whole volume.
func (v *Volume) Bounds() Box {
	return Box{Hi: [3]int{v.NX, v.NY, v.NZ}}
}

// Sample returns the trilinearly interpolated scalar at the continuous
// position (x, y, z), normalized to [0, 1]. Sample positions are
// cell-centered: voxel (i,j,k) is centered at (i+0.5, j+0.5, k+0.5).
// Positions outside the grid interpolate against zero.
func (v *Volume) Sample(x, y, z float64) float64 {
	x -= 0.5
	y -= 0.5
	z -= 0.5
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)

	c000 := float64(v.At(x0, y0, z0))
	c100 := float64(v.At(x0+1, y0, z0))
	c010 := float64(v.At(x0, y0+1, z0))
	c110 := float64(v.At(x0+1, y0+1, z0))
	c001 := float64(v.At(x0, y0, z0+1))
	c101 := float64(v.At(x0+1, y0, z0+1))
	c011 := float64(v.At(x0, y0+1, z0+1))
	c111 := float64(v.At(x0+1, y0+1, z0+1))

	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return (c0 + fz*(c1-c0)) / 255
}

// Gradient returns the central-difference gradient of the normalized
// scalar field at a continuous position, used for optional shading.
func (v *Volume) Gradient(x, y, z float64) [3]float64 {
	const h = 1.0
	return [3]float64{
		(v.Sample(x+h, y, z) - v.Sample(x-h, y, z)) / (2 * h),
		(v.Sample(x, y+h, z) - v.Sample(x, y-h, z)) / (2 * h),
		(v.Sample(x, y, z+h) - v.Sample(x, y, z-h)) / (2 * h),
	}
}

// Fill sets every voxel inside box (clipped to the grid) to value.
func (v *Volume) Fill(b Box, value uint8) {
	b = b.Intersect(v.Bounds())
	for z := b.Lo[2]; z < b.Hi[2]; z++ {
		for y := b.Lo[1]; y < b.Hi[1]; y++ {
			base := v.index(b.Lo[0], y, z)
			for i := 0; i < b.Dx(); i++ {
				v.Data[base+i] = value
			}
		}
	}
}

// CountAbove returns the number of voxels with value strictly above
// threshold — a quick density probe used by tests and dataset docs.
func (v *Volume) CountAbove(threshold uint8) int {
	n := 0
	for _, s := range v.Data {
		if s > threshold {
			n++
		}
	}
	return n
}

// Box is a half-open axis-aligned box in voxel space.
type Box struct {
	Lo, Hi [3]int
}

// Dx, Dy, Dz return the box extents.
func (b Box) Dx() int { return b.Hi[0] - b.Lo[0] }
func (b Box) Dy() int { return b.Hi[1] - b.Lo[1] }
func (b Box) Dz() int { return b.Hi[2] - b.Lo[2] }

// Extent returns the size along axis.
func (b Box) Extent(axis int) int { return b.Hi[axis] - b.Lo[axis] }

// Volume returns the number of voxels in the box, zero when empty.
func (b Box) Volume() int {
	if b.Empty() {
		return 0
	}
	return b.Dx() * b.Dy() * b.Dz()
}

// Empty reports whether the box contains no voxels.
func (b Box) Empty() bool {
	return b.Hi[0] <= b.Lo[0] || b.Hi[1] <= b.Lo[1] || b.Hi[2] <= b.Lo[2]
}

// Contains reports whether the continuous point (x, y, z) lies inside the
// half-open box. Half-openness assigns every point to exactly one box of
// a partition, which is what makes partitioned rendering exact.
func (b Box) Contains(x, y, z float64) bool {
	return x >= float64(b.Lo[0]) && x < float64(b.Hi[0]) &&
		y >= float64(b.Lo[1]) && y < float64(b.Hi[1]) &&
		z >= float64(b.Lo[2]) && z < float64(b.Hi[2])
}

// Intersect returns the overlap of two boxes.
func (b Box) Intersect(o Box) Box {
	for a := 0; a < 3; a++ {
		if o.Lo[a] > b.Lo[a] {
			b.Lo[a] = o.Lo[a]
		}
		if o.Hi[a] < b.Hi[a] {
			b.Hi[a] = o.Hi[a]
		}
	}
	if b.Empty() {
		return Box{}
	}
	return b
}

// Split cuts the box at pos along axis into the low part [Lo, pos) and
// the high part [pos, Hi).
func (b Box) Split(axis, pos int) (lo, hi Box) {
	lo, hi = b, b
	lo.Hi[axis] = pos
	hi.Lo[axis] = pos
	return lo, hi
}

// LargestAxis returns the axis with the greatest extent (ties broken
// toward x, then y).
func (b Box) LargestAxis() int {
	best := 0
	for a := 1; a < 3; a++ {
		if b.Extent(a) > b.Extent(best) {
			best = a
		}
	}
	return best
}

// Center returns the box center in continuous coordinates.
func (b Box) Center() [3]float64 {
	return [3]float64{
		float64(b.Lo[0]+b.Hi[0]) / 2,
		float64(b.Lo[1]+b.Hi[1]) / 2,
		float64(b.Lo[2]+b.Hi[2]) / 2,
	}
}

// Corners returns the eight corner points of the box.
func (b Box) Corners() [8][3]float64 {
	var out [8][3]float64
	for i := 0; i < 8; i++ {
		for a := 0; a < 3; a++ {
			if i>>a&1 == 0 {
				out[i][a] = float64(b.Lo[a])
			} else {
				out[i][a] = float64(b.Hi[a])
			}
		}
	}
	return out
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)",
		b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}
