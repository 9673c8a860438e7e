package render

import (
	"math"

	"sortlast/internal/frame"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// skipSafety is the margin, in world units (voxels), by which a sample
// must clear a macro-cell boundary before the cell's classification may
// skip it. Samples inside the margin are evaluated normally —
// evaluating extra samples is always sound, only skipping needs proof —
// so the margin only has to dominate the ~1e-9 accumulated float error
// of the DDA's boundary parameters, which a quarter voxel does with
// eight orders of magnitude to spare.
const skipSafety = 0.25

// kernel is one Raycast invocation's precomputed state: transfer tables
// and their derived skip table, the volume's voxels and its macro-cell
// grid, and the part of the box that can reach the frame. Building it
// costs microseconds (plus the once-per-volume grid build, amortized by
// the cache on the volume, and the once-per-Func skip table, kept on
// the Func) and removes the reference kernel's per-sample method calls
// and box.Contains. Every shortcut is bit-exact — the identity argument
// lives in DESIGN.md §11 and is enforced against RaycastReference by
// TestRaycastMatchesReference and TestRaycastRandomizedIdentity.
type kernel struct {
	// clip is the box cut to the cell-aligned hull of its non-empty
	// macro cells: every sample of the box outside it lies in a cell
	// that classifies to zero opacity. Empty when the whole box does.
	clip volume.Box
	cam  *Camera

	cutoff float64
	shaded bool
	light  [3]float64 // toward the light: head-on, -cam.Dir

	vol        *volume.Volume
	data       []uint8
	nx, ny, nz int
	grid       *volume.MacroGrid
	innerCells [3]uint // per axis, how many cells from 1 up are inner

	opac, inten *[256]float64
	nzBelow     *[257]int32 // count of non-zero Opacity entries with index < j, shared with tf
}

// u8f is float64(b) for every byte b: the voxel loads' conversion as
// one exact table load.
var u8f = func() (t [256]float64) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

func newKernel(vol *volume.Volume, box volume.Box, cam *Camera, tf *transfer.Func, opt Options) *kernel {
	k := &kernel{
		cam: cam,
		vol: vol, data: vol.Data, nx: vol.NX, ny: vol.NY, nz: vol.NZ,
		grid:    vol.MacroCells(),
		cutoff:  opt.cutoff(),
		shaded:  opt.Shaded,
		light:   [3]float64{-cam.Dir[0], -cam.Dir[1], -cam.Dir[2]},
		opac:    &tf.Opacity,
		inten:   &tf.Intensity,
		nzBelow: tf.NonZeroBelow(),
	}
	for a, n := range [3]int{vol.NX, vol.NY, vol.NZ} {
		k.innerCells[a] = uint(max((n-2)>>volume.MacroShift-1, 0))
	}
	k.clip = k.occupied(box)
	return k
}

// occupied returns box cut to the cell-aligned hull of the macro cells
// that meet it and that cellEmpty cannot prove transparent. One pass
// over the box's cells; a cell outside the grid is never empty, so it
// stays inside the hull.
func (k *kernel) occupied(box volume.Box) volume.Box {
	const s = volume.MacroShift
	hull := volume.Box{Lo: box.Hi, Hi: box.Lo} // inverted: empty until a cell widens it
	for cz := box.Lo[2] >> s; cz <= (box.Hi[2]-1)>>s; cz++ {
		for cy := box.Lo[1] >> s; cy <= (box.Hi[1]-1)>>s; cy++ {
			for cx := box.Lo[0] >> s; cx <= (box.Hi[0]-1)>>s; cx++ {
				if k.cellEmpty(cx, cy, cz) {
					continue
				}
				for a, c := range [3]int{cx, cy, cz} {
					hull.Lo[a] = min(hull.Lo[a], c<<s)
					hull.Hi[a] = max(hull.Hi[a], (c+1)<<s)
				}
			}
		}
	}
	return box.Intersect(hull)
}

// cellEmpty reports whether every sample inside macro cell (cx, cy, cz)
// provably classifies to zero opacity. Trilinear values over the cell's
// support lie in [Min, Max]/255 (the grid expanded the support by one
// voxel per side); the classification's table index can stray one entry
// past that range through last-ulp rounding of v*255, so the zero test
// covers [Min−1, Max+1].
func (k *kernel) cellEmpty(cx, cy, cz int) bool {
	mn, mx, ok := k.grid.Range(cx, cy, cz)
	if !ok {
		return false // outside the summary: never skip
	}
	lo, hi := int(mn)-1, int(mx)+1
	if lo < 0 {
		lo = 0
	}
	if hi > 255 {
		hi = 255
	}
	return k.nzBelow[hi+1] == k.nzBelow[lo]
}

// inner reports whether every sample a run in macro cell c can hold
// reads only in-volume voxels at non-negative coordinates. Such a run's
// samples lie in the cell or, carried over from the cells before it,
// within 0.75 voxel of its entry face in the shifted coordinates
// (x−0.5, …) that the floors take; DESIGN.md §11 gives the bound.
func (k *kernel) inner(c [3]int) bool {
	return uint(c[0]-1) < k.innerCells[0] && uint(c[1]-1) < k.innerCells[1] && uint(c[2]-1) < k.innerCells[2]
}

// contains tests sample index kk's world position against the clip box,
// with arithmetic identical to the reference kernel's box test.
func (k *kernel) contains(origin [3]float64, kk int) bool {
	t := float64(kk) + 0.5
	return k.clip.Contains(
		origin[0]+t*k.cam.Dir[0],
		origin[1]+t*k.cam.Dir[1],
		origin[2]+t*k.cam.Dir[2])
}

// castRay casts the ray through pixel (px, py) and returns the
// accumulated pixel, bit-identical to the reference kernel's.
func (k *kernel) castRay(px, py int, st *StatsSnapshot) frame.Pixel {
	var acc frame.Pixel
	origin := k.cam.PlanePoint(px, py)
	tMin, tMax, ok := k.cam.rayBox(origin, k.clip)
	if !ok {
		return acc
	}
	kLo := floorInt(tMin - 0.5)
	kHi := ceilInt(tMax - 0.5)

	// The per-axis sample position origin[a] + t·Dir[a] is monotone in
	// the sample index (IEEE rounding preserves order, each axis's
	// direction sign is fixed), so per axis the in-slab indices form an
	// interval and their three-way intersection — the in-clip indices —
	// is one contiguous interval [kA, kB]. Membership is decided by
	// scanning in from the ends; the interior never pays the reference
	// kernel's per-sample box.Contains. The reference's in-box samples
	// outside the clip lie in empty cells and would classify to zero.
	kA := kLo
	for ; kA <= kHi; kA++ {
		if k.contains(origin, kA) {
			break
		}
	}
	if kA > kHi {
		return acc
	}
	kB := kHi
	for ; kB > kA; kB-- {
		if k.contains(origin, kB) {
			break
		}
	}
	st.Rays++

	k.traverse(origin, kA, kB, &acc, st)
	return acc
}

// traverse walks the macro-cell grid along the ray with a 3D-DDA over
// the sample interval [kA, kB]. Cells that classify to zero opacity
// have their interior samples skipped wholesale, the last cell the
// interval reaches included; samples within skipSafety of a cell
// boundary, and every sample of a non-empty cell, are evaluated exactly
// as the reference kernel would. The kNext cursor is monotone, so no
// sample is evaluated twice; a cell reaching past the last sample ends
// the loop unless that sample sits in its exit margin, which the next
// cell then takes.
func (k *kernel) traverse(origin [3]float64, kA, kB int, acc *frame.Pixel, st *StatsSnapshot) {
	d := k.cam.Dir
	tA := float64(kA) + 0.5

	// Cell holding the first sample, and per-axis DDA state: tNext[a]
	// is the ray parameter of the next cell boundary crossing on axis
	// a, tDelta[a] the parameter distance between crossings.
	var c [3]int
	var tNext, tDelta [3]float64
	var step [3]int
	for a := 0; a < 3; a++ {
		p := origin[a] + tA*d[a]
		c[a] = floorInt(p / volume.MacroCell)
		switch {
		case d[a] > 0:
			step[a] = 1
			tDelta[a] = volume.MacroCell / d[a]
			bound := float64((c[a] + 1) * volume.MacroCell)
			tNext[a] = tA + (bound-p)/d[a]
		case d[a] < 0:
			step[a] = -1
			tDelta[a] = -volume.MacroCell / d[a]
			bound := float64(c[a] * volume.MacroCell)
			tNext[a] = tA + (bound-p)/d[a]
		default:
			tNext[a] = math.Inf(1)
			tDelta[a] = math.Inf(1)
		}
	}

	kNext := kA  // first sample neither evaluated nor skipped yet
	tEnter := tA // parameter at which the DDA entered the current cell
	for kNext <= kB {
		tExit := tNext[0]
		if tNext[1] < tExit {
			tExit = tNext[1]
		}
		if tNext[2] < tExit {
			tExit = tNext[2]
		}
		st.CellsVisited++
		if k.cellEmpty(c[0], c[1], c[2]) {
			st.CellsSkipped++
			// Indices whose parameters clear both boundaries by the
			// safety margin are provably transparent; stragglers below
			// the window (this cell's entry zone plus any boundary
			// samples earlier cells left behind) are evaluated.
			kSkipLo := ceilInt(tEnter + skipSafety - 0.5)
			kSkipHi := floorInt(tExit - skipSafety - 0.5)
			if kSkipHi > kB {
				kSkipHi = kB
			}
			if kSkipLo > kNext {
				hi := kSkipLo - 1
				if hi > kB {
					hi = kB
				}
				if k.processRun(origin, kNext, hi, k.inner(c), acc, st) {
					return
				}
				kNext = hi + 1
			}
			if kSkipHi >= kNext {
				st.SamplesSkipped += int64(kSkipHi - kNext + 1)
				kNext = kSkipHi + 1
			}
		} else {
			// In the last cell tExit ≥ kB+0.5, so kCellHi clamps to kB.
			kCellHi := floorInt(tExit - 0.5)
			if kCellHi > kB {
				kCellHi = kB
			}
			if kCellHi >= kNext {
				if k.processRun(origin, kNext, kCellHi, k.inner(c), acc, st) {
					return
				}
				kNext = kCellHi + 1
			}
		}
		// Step across the nearest boundary into the neighboring cell.
		ax := 0
		if tNext[1] < tNext[ax] {
			ax = 1
		}
		if tNext[2] < tNext[ax] {
			ax = 2
		}
		tEnter = tNext[ax]
		c[ax] += step[ax]
		tNext[ax] += tDelta[ax]
	}
}

// processRun evaluates sample indices k0..k1 exactly as the reference
// kernel does and reports whether the ray reached the early-termination
// cutoff. Positions stay closed-form (k+0.5 from the plane point, never
// incrementally accumulated) so they are bit-identical to the reference
// kernel's. Every sample is composited, with no branch on its value: a
// sample of zero opacity adds w = +0, which leaves I and A bit for bit
// where the reference's continue leaves them (DESIGN.md §11). An inner
// run (see inner) of an unshaded frame loads its voxels directly, with
// int() as the floor and no call in the loop, so I and A stay in
// registers; any other run calls sample and shade.
func (k *kernel) processRun(origin [3]float64, k0, k1 int, inner bool, acc *frame.Pixel, st *StatsSnapshot) bool {
	d := k.cam.Dir
	data, nx, nxy := k.data, k.nx, k.nx*k.ny
	cutoff := k.cutoff
	I, A := acc.I, acc.A // A < cutoff: the run before did not terminate
	kk := k0
	if inner && !k.shaded {
		for ; kk <= k1 && A < cutoff; kk++ {
			t := float64(kk) + 0.5
			x := origin[0] + t*d[0] - 0.5
			y := origin[1] + t*d[1] - 0.5
			z := origin[2] + t*d[2] - 0.5
			x0, y0, z0 := int(x), int(y), int(z)
			b := z0*nxy + y0*nx + x0
			op, in := k.classify(trilinear(
				u8f[data[b]], u8f[data[b+1]], u8f[data[b+nx]], u8f[data[b+nx+1]],
				u8f[data[b+nxy]], u8f[data[b+nxy+1]], u8f[data[b+nxy+nx]], u8f[data[b+nxy+nx+1]],
				x-float64(x0), y-float64(y0), z-float64(z0)))
			w := (1 - A) * (1 - (1 - op))
			I, A = I+w*in, A+w
		}
	} else {
		for ; kk <= k1 && A < cutoff; kk++ {
			t := float64(kk) + 0.5
			x := origin[0] + t*d[0]
			y := origin[1] + t*d[1]
			z := origin[2] + t*d[2]
			op, in := k.classify(k.sample(x, y, z))
			if k.shaded && op > 0 {
				in *= k.shade(x, y, z)
			}
			w := (1 - A) * (1 - (1 - op))
			I, A = I+w*in, A+w
		}
	}
	acc.I, acc.A = I, A
	st.Samples += int64(kk - k0)
	return A >= cutoff
}

// classify is transfer.Func.Classify without its range tests. A sample
// value v lies in [0, 1], and at v = 0 and v = 1 the lerp weight f is
// 0, so the lerp returns the end entry as Classify does; j's clamp
// keeps v = 1 on entry 255. The uint8 indices drop the bounds checks.
func (k *kernel) classify(v float64) (op, in float64) {
	xf := v * 255
	i := int(xf)
	j := min(i+1, 255)
	f := xf - float64(i)
	o0, n0 := k.opac[uint8(i)], k.inten[uint8(i)]
	return o0 + f*(k.opac[uint8(j)]-o0), n0 + f*(k.inten[uint8(j)]-n0)
}

// sample reproduces volume.Volume.Sample bit for bit: direct strided
// loads in the interior, an At-based fallback at the boundary (where
// the reference zero-extends), and the identical lerp chain.
func (k *kernel) sample(x, y, z float64) float64 {
	x -= 0.5
	y -= 0.5
	z -= 0.5
	x0, y0, z0 := floorInt(x), floorInt(y), floorInt(z)
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
	if x0 >= 0 && y0 >= 0 && z0 >= 0 && x0+1 < k.nx && y0+1 < k.ny && z0+1 < k.nz {
		d, nx, nxy := k.data, k.nx, k.nx*k.ny
		b := z0*nxy + y0*nx + x0
		return trilinear(
			u8f[d[b]], u8f[d[b+1]], u8f[d[b+nx]], u8f[d[b+nx+1]],
			u8f[d[b+nxy]], u8f[d[b+nxy+1]], u8f[d[b+nxy+nx]], u8f[d[b+nxy+nx+1]],
			fx, fy, fz)
	}
	v := k.vol
	return trilinear(
		u8f[v.At(x0, y0, z0)], u8f[v.At(x0+1, y0, z0)],
		u8f[v.At(x0, y0+1, z0)], u8f[v.At(x0+1, y0+1, z0)],
		u8f[v.At(x0, y0, z0+1)], u8f[v.At(x0+1, y0, z0+1)],
		u8f[v.At(x0, y0+1, z0+1)], u8f[v.At(x0+1, y0+1, z0+1)],
		fx, fy, fz)
}

// trilinear is Volume.Sample's lerp chain over the corners cXYZ.
func trilinear(c000, c100, c010, c110, c001, c101, c011, c111, fx, fy, fz float64) float64 {
	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return (c0 + fz*(c1-c0)) / 255
}

// shade reproduces the package-level shade — Volume.Gradient's central
// differences, then the Lambertian factor — over k.sample's direct
// loads.
func (k *kernel) shade(x, y, z float64) float64 {
	const h = 1.0
	gx := (k.sample(x+h, y, z) - k.sample(x-h, y, z)) / (2 * h)
	gy := (k.sample(x, y+h, z) - k.sample(x, y-h, z)) / (2 * h)
	gz := (k.sample(x, y, z+h) - k.sample(x, y, z-h)) / (2 * h)
	n := math.Sqrt(gx*gx + gy*gy + gz*gz)
	if n < 1e-9 {
		return 1 // flat region: unshaded
	}
	d := -(gx*k.light[0] + gy*k.light[1] + gz*k.light[2]) / n
	if d < 0 {
		d = 0
	}
	return ambient + (1-ambient)*d
}

// floorInt is int(math.Floor(x)) and ceilInt int(math.Ceil(x)) for every
// finite |x| < 2⁶³, without the call: int(x) truncates toward zero, the
// truncated value converts back to float64 exactly, and one compare
// steps it to the floor (ceiling) when truncation rounded the wrong way.
// Under GOAMD64=v1, math.Floor is a runtime SSE4.1 test and a call that
// spills every live register; sample takes three per call.
func floorInt(x float64) int {
	i := int(x)
	if float64(i) > x {
		i--
	}
	return i
}

func ceilInt(x float64) int {
	i := int(x)
	if float64(i) < x {
		i++
	}
	return i
}
