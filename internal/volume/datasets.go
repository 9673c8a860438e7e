package volume

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// The paper evaluates on four CT samples: Engine_low and Engine_high
// (256x256x110 — the well-known GE engine-block scan under two transfer
// functions), Head (256x256x113 CT head), and Cube (256x256x110 synthetic
// cube). The original scans are not redistributable, so this file builds
// procedural phantoms of identical dimensions whose screen-space
// sparsity structure spans the same spectrum: a dense blocky solid with
// internal structure (engine), a layered shell object (head), and a
// small compact solid (cube). The compositing methods only observe the
// blank/non-blank structure of the rendered subimages, which these
// phantoms reproduce.

// Dataset names accepted by Generate.
const (
	DatasetEngine = "engine"
	DatasetHead   = "head"
	DatasetCube   = "cube"
)

// noiseAmplitude bounds textureNoise's perturbation: ±6 of 255.
const noiseAmplitude = 6

// textureNoise perturbs non-empty material values like CT acquisition
// noise does (deterministically, so every process generates an identical
// volume). Real scans almost never have exactly repeating sample values,
// which is the premise of the paper's §3.3 argument against value-based
// run-length encoding; noiseless phantoms would hide it.
func textureNoise(v *Volume) {
	slabs(v.NZ, func(z0, z1 int) {
		for z := z0; z < z1; z++ {
			for y := 0; y < v.NY; y++ {
				hyz := uint32(y)*2246822519 ^ uint32(z)*3266489917
				row := v.Data[(z*v.NY+y)*v.NX:][:v.NX]
				for x, s := range row {
					if s == 0 {
						continue
					}
					h := uint32(x)*2654435761 ^ hyz
					h ^= h >> 13
					h *= 1274126177
					h ^= h >> 16
					n := int(s) + int(h%(2*noiseAmplitude+1)) - noiseAmplitude
					row[x] = uint8(min(max(n, 1), 255))
				}
			}
		}
	})
}

// slabs splits [0, n) into min(GOMAXPROCS, n) contiguous ranges, runs fn
// on each in its own goroutine and waits for them. Every pass given to it
// writes only inside its range, and each value it writes is a function of
// position and of what earlier passes wrote, so the bytes do not depend
// on the split.
func slabs(n int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(i*n/w, (i+1)*n/w)
	}
	wg.Wait()
}

// Generate builds the named dataset at the paper's native dimensions.
func Generate(name string) (*Volume, error) {
	switch name {
	case DatasetEngine:
		return EngineBlock(256, 256, 110), nil
	case DatasetHead:
		return HeadPhantom(256, 256, 113), nil
	case DatasetCube:
		return SolidCube(256, 256, 110), nil
	default:
		return nil, fmt.Errorf("volume: unknown dataset %q (want %s, %s or %s)",
			name, DatasetEngine, DatasetHead, DatasetCube)
	}
}

// EngineBlock builds an engine-block-like phantom: a rectangular casting
// of medium density with four high-density cylinder liners, hollow bores,
// a head slab, and bolt bosses. Low-threshold transfer functions see the
// whole casting (dense images); high-threshold ones see only the liners
// and bosses (sparse images), mirroring Engine_low vs Engine_high.
func EngineBlock(nx, ny, nz int) *Volume {
	v := New(nx, ny, nz)
	fx, fy, fz := float64(nx), float64(ny), float64(nz)

	const (
		casting = 95  // aluminium block
		liner   = 210 // steel cylinder walls
		boss    = 235 // bolts / bosses
	)

	// Main casting: a box occupying the middle of the grid.
	block := Box{
		Lo: [3]int{int(0.14 * fx), int(0.22 * fy), int(0.12 * fz)},
		Hi: [3]int{int(0.86 * fx), int(0.78 * fy), int(0.72 * fz)},
	}
	v.Fill(block, casting)

	// Head slab on top, slightly wider.
	slab := Box{
		Lo: [3]int{int(0.10 * fx), int(0.18 * fy), int(0.72 * fz)},
		Hi: [3]int{int(0.90 * fx), int(0.82 * fy), int(0.84 * fz)},
	}
	v.Fill(slab, casting)

	// Four cylinders along z: steel liner with hollow bore. What a voxel
	// becomes depends only on its (x, y) column, so it is decided once per
	// column, later centers overriding earlier ones, then stamped onto
	// every slice the cylinders span.
	rOuter := 0.085 * fx
	rInner := 0.060 * fx
	zLo, zHi := int(0.16*fz), int(0.84*fz)
	centers := [][2]float64{
		{0.30 * fx, 0.38 * fy}, {0.70 * fx, 0.38 * fy},
		{0.30 * fx, 0.62 * fy}, {0.70 * fx, 0.62 * fy},
	}
	const bore, wall = 1, 2 // 0 leaves the column as it is
	cols := make([]uint8, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			for _, c := range centers {
				d := math.Hypot(px-c[0], py-c[1])
				switch {
				case d < rInner:
					cols[y*nx+x] = bore
				case d < rOuter:
					cols[y*nx+x] = wall
				}
			}
		}
	}
	slabs(zHi-zLo, func(lo, hi int) {
		for z := zLo + lo; z < zLo+hi; z++ {
			slice := v.Data[z*nx*ny:][:nx*ny]
			for i, c := range cols {
				switch c {
				case bore:
					slice[i] = 0
				case wall:
					slice[i] = liner
				}
			}
		}
	})

	// Bolt bosses: small dense spheres at the corners of the head slab.
	rBoss := 0.035 * fx
	for _, cx := range []float64{0.18 * fx, 0.82 * fx} {
		for _, cy := range []float64{0.26 * fy, 0.74 * fy} {
			fillSphere(v, cx, cy, 0.78*fz, rBoss, boss)
		}
	}
	textureNoise(v)
	return v
}

// HeadPhantom builds a layered head-like phantom: skin, a high-density
// skull shell, brain tissue, and two low-density ventricles, all
// ellipsoids. A skin-level threshold yields a dense blob; a bone-level
// threshold yields a sparse shell.
func HeadPhantom(nx, ny, nz int) *Volume {
	v := New(nx, ny, nz)
	cx, cy, cz := float64(nx)/2, float64(ny)/2, float64(nz)/2
	// Semi-axes: the head is taller (y) than wide and fills most of z.
	ax, ay, az := 0.34*float64(nx), 0.44*float64(ny), 0.46*float64(nz)

	const (
		skin  = 55
		skull = 215
		brain = 110
		csf   = 35
	)

	// Only dx varies along a row: dy² and dz² are hoisted as products,
	// and the sum keeps its left-to-right order.
	slabs(nz, func(z0, z1 int) {
		for z := z0; z < z1; z++ {
			dz := (float64(z) + 0.5 - cz) / az
			dz2 := dz * dz
			for y := 0; y < ny; y++ {
				dy := (float64(y) + 0.5 - cy) / ay
				dy2 := dy * dy
				row := v.Data[(z*ny+y)*nx:][:nx]
				for x := range row {
					dx := (float64(x) + 0.5 - cx) / ax
					switch r := dx*dx + dy2 + dz2; {
					case r > 1:
						// outside the head: air
					case r > 0.90:
						row[x] = skin
					case r > 0.74:
						row[x] = skull
					default:
						row[x] = brain
					}
				}
			}
		}
	})
	// Ventricles: two small low-density ellipsoids inside the brain.
	for _, side := range []float64{-1, 1} {
		vcx := cx + side*0.10*float64(nx)
		fillEllipsoid(v, vcx, cy, cz+0.05*float64(nz),
			0.05*float64(nx), 0.14*float64(ny), 0.10*float64(nz), csf)
	}
	textureNoise(v)
	return v
}

// SolidCube builds the paper's synthetic Cube sample: a single solid,
// fully opaque cube centered in the grid, covering roughly a quarter of
// each dimension — a small compact object whose subimages are extremely
// sparse, the best case for bounding rectangles and RLE.
func SolidCube(nx, ny, nz int) *Volume {
	v := New(nx, ny, nz)
	side := min3(nx, ny, nz) / 4
	c := Box{
		Lo: [3]int{(nx - side) / 2, (ny - side) / 2, (nz - side) / 2},
	}
	c.Hi = [3]int{c.Lo[0] + side, c.Lo[1] + side, c.Lo[2] + side}
	v.Fill(c, 255)
	return v
}

// Sphere builds a solid sphere phantom (test helper and fifth workload).
func Sphere(nx, ny, nz int, radiusFrac float64, value uint8) *Volume {
	v := New(nx, ny, nz)
	r := radiusFrac * float64(min3(nx, ny, nz)) / 2
	fillSphere(v, float64(nx)/2, float64(ny)/2, float64(nz)/2, r, value)
	return v
}

// Ramp builds a volume whose value grows linearly along the chosen axis —
// a fully dense, smoothly varying field useful for worst-case (dense)
// compositing studies and renderer tests.
func Ramp(nx, ny, nz, axis int) *Volume {
	v := New(nx, ny, nz)
	n := [3]int{nx, ny, nz}[axis]
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				pos := [3]int{x, y, z}[axis]
				v.Set(x, y, z, uint8(1+pos*254/max(1, n-1)))
			}
		}
	}
	return v
}

// Checker builds an alternating blank/solid block pattern — the
// adversarial case for run-length encoding (many short runs).
func Checker(nx, ny, nz, cell int, value uint8) *Volume {
	v := New(nx, ny, nz)
	if cell < 1 {
		cell = 1
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if (x/cell+y/cell+z/cell)%2 == 0 {
					v.Set(x, y, z, value)
				}
			}
		}
	}
	return v
}

func fillSphere(v *Volume, cx, cy, cz, r float64, value uint8) {
	fillEllipsoid(v, cx, cy, cz, r, r, r, value)
}

func fillEllipsoid(v *Volume, cx, cy, cz, rx, ry, rz float64, value uint8) {
	x0, x1 := int(cx-rx)-1, int(cx+rx)+1
	y0, y1 := int(cy-ry)-1, int(cy+ry)+1
	z0, z1 := int(cz-rz)-1, int(cz+rz)+1
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				dx := (float64(x) + 0.5 - cx) / rx
				dy := (float64(y) + 0.5 - cy) / ry
				dz := (float64(z) + 0.5 - cz) / rz
				if dx*dx+dy*dy+dz*dz <= 1 {
					v.Set(x, y, z, value)
				}
			}
		}
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
