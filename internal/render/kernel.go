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
// and their derived skip/correction tables, the volume's voxels and its
// macro-cell grid. Building it costs microseconds (plus the
// once-per-volume grid build, amortized by the cache on the volume) and
// removes the reference kernel's per-sample method calls and
// box.Contains. Every shortcut is bit-exact — the identity argument
// lives in DESIGN.md §11 and is enforced against RaycastReference by
// TestRaycastMatchesReference and TestRaycastRandomizedIdentity.
type kernel struct {
	box volume.Box
	cam *Camera

	cutoff float64
	shaded bool
	light  [3]float64 // toward the light: head-on, -cam.Dir

	vol        *volume.Volume
	data       []uint8
	nx, ny, nz int
	grid       *volume.MacroGrid

	opac, inten *[256]float64
	corr        [256]float64 // 1 − (1−Opacity[j]); exact where the table is flat
	flat        [256]bool    // Opacity[j] == Opacity[j+1]
	nzBelow     [257]int32   // count of non-zero Opacity entries with index < j
}

func newKernel(vol *volume.Volume, box volume.Box, cam *Camera, tf *transfer.Func, opt Options) *kernel {
	k := &kernel{
		box: box, cam: cam,
		vol: vol, data: vol.Data, nx: vol.NX, ny: vol.NY, nz: vol.NZ,
		grid:   vol.MacroCells(),
		cutoff: opt.cutoff(),
		shaded: opt.Shaded,
		light:  [3]float64{-cam.Dir[0], -cam.Dir[1], -cam.Dir[2]},
		opac:   &tf.Opacity,
		inten:  &tf.Intensity,
	}
	var nz int32
	for j := 0; j < 256; j++ {
		k.nzBelow[j] = nz
		if tf.Opacity[j] != 0 {
			nz++
		}
		// The reference's opacity correction at a unit step, 1−(1−op) —
		// which is NOT op in floats.
		k.corr[j] = 1 - (1 - tf.Opacity[j])
		if j < 255 {
			k.flat[j] = tf.Opacity[j] == tf.Opacity[j+1]
		}
	}
	k.nzBelow[256] = nz
	return k
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

// contains tests sample index kk's world position against the box,
// with arithmetic identical to the reference kernel's.
func (k *kernel) contains(origin [3]float64, kk int) bool {
	t := float64(kk) + 0.5
	return k.box.Contains(
		origin[0]+t*k.cam.Dir[0],
		origin[1]+t*k.cam.Dir[1],
		origin[2]+t*k.cam.Dir[2])
}

// castRay casts the ray through pixel (px, py) and returns the
// accumulated pixel, bit-identical to the reference kernel's.
func (k *kernel) castRay(px, py int, st *StatsSnapshot) frame.Pixel {
	var acc frame.Pixel
	origin := k.cam.PlanePoint(px, py)
	tMin, tMax, ok := k.cam.rayBox(origin, k.box)
	if !ok {
		return acc
	}
	kLo := int(math.Floor(tMin - 0.5))
	kHi := int(math.Ceil(tMax - 0.5))

	// The per-axis sample position origin[a] + t·Dir[a] is monotone in
	// the sample index (IEEE rounding preserves order, each axis's
	// direction sign is fixed), so per axis the in-slab indices form an
	// interval and their three-way intersection — the in-box indices —
	// is one contiguous interval [kA, kB]. Membership is decided by
	// scanning in from the ends; the interior never pays the reference
	// kernel's per-sample box.Contains.
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
// have their interior samples skipped wholesale; samples within
// skipSafety of a cell boundary, and every sample of a non-empty cell,
// are evaluated exactly as the reference kernel would. The kNext cursor
// is monotone, so no sample is evaluated twice.
func (k *kernel) traverse(origin [3]float64, kA, kB int, acc *frame.Pixel, st *StatsSnapshot) {
	d := k.cam.Dir
	tA := float64(kA) + 0.5
	tB := float64(kB) + 0.5

	// Cell holding the first sample, and per-axis DDA state: tNext[a]
	// is the ray parameter of the next cell boundary crossing on axis
	// a, tDelta[a] the parameter distance between crossings.
	var c [3]int
	var tNext, tDelta [3]float64
	var step [3]int
	for a := 0; a < 3; a++ {
		p := origin[a] + tA*d[a]
		c[a] = int(math.Floor(p / volume.MacroCell))
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
		if tExit >= tB {
			// Final cell the interval reaches: evaluate the remainder
			// (conservative for an empty final cell, but it bounds the
			// loop and at most one cell's samples are evaluated).
			st.CellsVisited++
			k.processRun(origin, kNext, kB, acc, st)
			return
		}
		st.CellsVisited++
		if k.cellEmpty(c[0], c[1], c[2]) {
			st.CellsSkipped++
			// Indices whose parameters clear both boundaries by the
			// safety margin are provably transparent; stragglers below
			// the window (this cell's entry zone plus any boundary
			// samples earlier cells left behind) are evaluated.
			kSkipLo := int(math.Ceil(tEnter + skipSafety - 0.5))
			kSkipHi := int(math.Floor(tExit - skipSafety - 0.5))
			if kSkipHi > kB {
				kSkipHi = kB
			}
			if kSkipLo > kNext {
				hi := kSkipLo - 1
				if hi > kB {
					hi = kB
				}
				if k.processRun(origin, kNext, hi, acc, st) {
					return
				}
				kNext = hi + 1
			}
			if kSkipHi >= kNext {
				st.SamplesSkipped += int64(kSkipHi - kNext + 1)
				kNext = kSkipHi + 1
			}
		} else {
			kCellHi := int(math.Floor(tExit - 0.5))
			if kCellHi > kB {
				kCellHi = kB
			}
			if kCellHi >= kNext {
				if k.processRun(origin, kNext, kCellHi, acc, st) {
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
// kernel does and reports whether the ray hit the early-termination
// cutoff. Positions stay closed-form (k+0.5 from the plane point, never
// incrementally accumulated) so they are bit-identical to the reference
// kernel's.
func (k *kernel) processRun(origin [3]float64, k0, k1 int, acc *frame.Pixel, st *StatsSnapshot) bool {
	d := k.cam.Dir
	for kk := k0; kk <= k1; kk++ {
		t := float64(kk) + 0.5
		x := origin[0] + t*d[0]
		y := origin[1] + t*d[1]
		z := origin[2] + t*d[2]
		st.Samples++
		if k.accumulate(x, y, z, acc) {
			return true
		}
	}
	return false
}

// accumulate classifies, shades and composites one sample. Each
// shortcut reproduces the reference arithmetic bit for bit:
//
//   - the transfer lookup inlines transfer.Func.Classify;
//   - where the opacity table is flat across the interpolation span,
//     the lerp returns the table entry exactly, so the precomputed
//     correction corr[i] applies; elsewhere the correction 1−(1−op) is
//     computed in place, as the reference does.
func (k *kernel) accumulate(x, y, z float64, acc *frame.Pixel) bool {
	v := k.sample(x, y, z)

	var op, in, a float64
	switch {
	case v <= 0:
		op, in, a = k.opac[0], k.inten[0], k.corr[0]
	case v >= 1:
		op, in, a = k.opac[255], k.inten[255], k.corr[255]
	default:
		xf := v * 255
		i := int(xf)
		t := xf - float64(i)
		o0 := k.opac[i]
		op = o0 + t*(k.opac[i+1]-o0)
		if op <= 0 {
			return false
		}
		in0 := k.inten[i]
		in = in0 + t*(k.inten[i+1]-in0)
		if k.flat[i] {
			a = k.corr[i]
		} else {
			a = 1 - (1 - op)
		}
	}
	if op <= 0 {
		return false
	}
	if k.shaded {
		in *= k.shade(x, y, z)
	}
	w := (1 - acc.A) * a
	acc.I += w * in
	acc.A += w
	return acc.A >= k.cutoff
}

// sample reproduces volume.Volume.Sample bit for bit: direct strided
// loads in the interior, an At-based fallback at the boundary (where
// the reference zero-extends), and the identical lerp chain.
func (k *kernel) sample(x, y, z float64) float64 {
	x -= 0.5
	y -= 0.5
	z -= 0.5
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)

	var c000, c100, c010, c110, c001, c101, c011, c111 float64
	if x0 >= 0 && y0 >= 0 && z0 >= 0 && x0+1 < k.nx && y0+1 < k.ny && z0+1 < k.nz {
		d := k.data
		nx, nxy := k.nx, k.nx*k.ny
		base := (z0*k.ny+y0)*k.nx + x0
		c000 = float64(d[base])
		c100 = float64(d[base+1])
		c010 = float64(d[base+nx])
		c110 = float64(d[base+nx+1])
		c001 = float64(d[base+nxy])
		c101 = float64(d[base+nxy+1])
		c011 = float64(d[base+nxy+nx])
		c111 = float64(d[base+nxy+nx+1])
	} else {
		v := k.vol
		c000 = float64(v.At(x0, y0, z0))
		c100 = float64(v.At(x0+1, y0, z0))
		c010 = float64(v.At(x0, y0+1, z0))
		c110 = float64(v.At(x0+1, y0+1, z0))
		c001 = float64(v.At(x0, y0, z0+1))
		c101 = float64(v.At(x0+1, y0, z0+1))
		c011 = float64(v.At(x0, y0+1, z0+1))
		c111 = float64(v.At(x0+1, y0+1, z0+1))
	}
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
