package render

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/partition"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// requireIdentical asserts two images agree bit for bit over the whole
// frame (bounds and every pixel's raw float64 fields).
func requireIdentical(t *testing.T, label string, got, want *frame.Image) {
	t.Helper()
	if got.Bounds() != want.Bounds() {
		t.Fatalf("%s: bounds %v, want %v", label, got.Bounds(), want.Bounds())
	}
	full := want.Full()
	for y := full.Y0; y < full.Y1; y++ {
		for x := full.X0; x < full.X1; x++ {
			g, w := got.At(x, y), want.At(x, y)
			if g != w {
				t.Fatalf("%s: pixel (%d,%d) = %v, want %v (dI=%g dA=%g)",
					label, x, y, g, w, g.I-w.I, g.A-w.A)
			}
		}
	}
}

// TestRaycastMatchesReference is the acceptance gate of the accelerated
// kernel: byte-identical output to the pre-acceleration kernel across
// the paper's workload spectrum × shading × worker counts × partitioned
// boxes.
func TestRaycastMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		vol  *volume.Volume
		tf   *transfer.Func
	}{
		{"engine_low", volume.EngineBlock(48, 48, 20), transfer.EngineLow()},
		{"engine_high", volume.EngineBlock(48, 48, 20), transfer.EngineHigh()},
		{"head", volume.HeadPhantom(48, 48, 24), transfer.Head()},
		{"cube", volume.SolidCube(48, 48, 20), transfer.Cube()},
		// A flat slab: the footprint has very few rows, the regime
		// where the old scanline queue starved its workers.
		{"slab", volume.Ramp(64, 6, 32, 0), transfer.EngineLow()},
	}
	for _, tc := range cases {
		for _, shaded := range []bool{false, true} {
			opt := Options{Shaded: shaded}
			cam := NewCamera(64, 64, tc.vol.Bounds(), 20, 35)
			want := RaycastReference(tc.vol, tc.vol.Bounds(), cam, tc.tf, opt)
			for _, w := range []int{1, 4, 0} {
				opt.Workers = w
				got := Raycast(tc.vol, tc.vol.Bounds(), cam, tc.tf, opt)
				requireIdentical(t, fmt.Sprintf("%s shaded=%v workers=%d", tc.name, shaded, w), got, want)
			}
		}
	}

	// Partitioned boxes, as the harness drives them (one shared volume,
	// one box per rank).
	v := volume.EngineBlock(48, 48, 20)
	tf := transfer.EngineLow()
	cam := NewCamera(64, 64, v.Bounds(), 20, 35)
	dec, err := partition.Decompose(v.Bounds(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, shaded := range []bool{false, true} {
		for r := 0; r < 4; r++ {
			box := dec.Box(r)
			opt := Options{Shaded: shaded, Workers: 4}
			want := RaycastReference(v, box, cam, tf, opt)
			got := Raycast(v, box, cam, tf, opt)
			requireIdentical(t, fmt.Sprintf("rank %d shaded=%v shared", r, shaded), got, want)
		}
	}

	// Disabled early termination, as the partition-exactness tests run.
	for _, opt := range []Options{
		{EarlyTermination: -1},
		{EarlyTermination: -1, Shaded: true},
	} {
		want := RaycastReference(v, v.Bounds(), cam, tf, opt)
		got := Raycast(v, v.Bounds(), cam, tf, opt)
		requireIdentical(t, fmt.Sprintf("opts %+v", opt), got, want)
	}
}

// axisCamera builds a camera directly (bypassing NewCamera) so tests
// can pin exact ray geometry: Scale 1 and an integer/half-integer
// center put rays and samples exactly on voxel and macro-cell
// boundaries.
func axisCamera(w, h int, u, v, dir, center [3]float64) *Camera {
	return &Camera{W: w, H: h, U: u, V: v, Dir: dir, Center: center, Scale: 1}
}

// TestRaycastDDABoundaryGolden drives the DDA through exact boundary
// and corner incidences: rays grazing macro-cell faces (integer x/y
// positions at multiples of 8), sample positions landing exactly on
// cell boundaries (half-integer plane center makes z = integer at every
// sample), and negative/diagonal directions crossing cell corners. The
// volume is a checkerboard with blocks equal to the macro-cell size, so
// every cell boundary separates a skippable cell from a full one —
// the worst case for an off-by-one in the skip window.
func TestRaycastDDABoundaryGolden(t *testing.T) {
	if volume.MacroCell != 8 {
		t.Skip("golden geometry assumes 8-voxel macro cells")
	}
	check := volume.Checker(64, 64, 64, 8, 200)
	sphere := volume.Sphere(64, 64, 64, 0.7, 180)
	tf := transfer.Ramp("gold", 60, 160, 0.4)

	// PlanePoint(px, py) = Center + (px+0.5-W/2)·U + (py+0.5-H/2)·V
	// with Scale 1 and W=H=33: offsets are px-16 ∈ {-16..16}, so with
	// Center (32,32,c) rays pass through INTEGER x,y — every ray with
	// px ≡ 0 (mod 8)+16 grazes a cell face exactly; the half-open
	// Contains decides ownership, and skipping must not disturb it.
	cams := map[string]*Camera{
		"+z axis, rays on faces": axisCamera(33, 33,
			[3]float64{1, 0, 0}, [3]float64{0, 1, 0}, [3]float64{0, 0, 1},
			[3]float64{32, 32, 32}),
		// Center z = 32.5: sample k sits at z = 32.5+(k+0.5), an
		// integer — every sample exactly ON a voxel boundary, every 8th
		// exactly on a cell boundary.
		"+z axis, samples on boundaries": axisCamera(33, 33,
			[3]float64{1, 0, 0}, [3]float64{0, 1, 0}, [3]float64{0, 0, 1},
			[3]float64{32, 32, 32.5}),
		"-z axis": axisCamera(33, 33,
			[3]float64{1, 0, 0}, [3]float64{0, -1, 0}, [3]float64{0, 0, -1},
			[3]float64{32, 32, 32.5}),
		// Diagonal through cell corners: direction (1,1,1)/√3 with the
		// ray through (32,32,32) passes exactly through macro-cell
		// corner lattice points (40,40,40), (48,48,48), …
		"diagonal corners": axisCamera(33, 33,
			[3]float64{1 / math.Sqrt2, -1 / math.Sqrt2, 0},
			[3]float64{1 / math.Sqrt(6), 1 / math.Sqrt(6), -2 / math.Sqrt(6)},
			[3]float64{1 / math.Sqrt(3), 1 / math.Sqrt(3), 1 / math.Sqrt(3)},
			[3]float64{32, 32, 32}),
	}
	for _, vol := range []*volume.Volume{check, sphere} {
		for name, cam := range cams {
			for _, shaded := range []bool{false, true} {
				opt := Options{Shaded: shaded}
				want := RaycastReference(vol, vol.Bounds(), cam, tf, opt)
				got := Raycast(vol, vol.Bounds(), cam, tf, opt)
				requireIdentical(t, fmt.Sprintf("%s shaded=%v", name, shaded), got, want)
			}
		}
	}
}

// randomVolume builds a volume with empty space, dense blobs and noise —
// enough structure that macro-cell skipping, boundary processing and
// dense evaluation all fire.
func randomVolume(rng *rand.Rand) *volume.Volume {
	nx := 16 + rng.Intn(40)
	ny := 16 + rng.Intn(40)
	nz := 16 + rng.Intn(32)
	v := volume.New(nx, ny, nz)
	for i := 0; i < 1+rng.Intn(3); i++ {
		lo := [3]int{rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)}
		v.Fill(volume.Box{
			Lo: lo,
			Hi: [3]int{lo[0] + 1 + rng.Intn(nx), lo[1] + 1 + rng.Intn(ny), lo[2] + 1 + rng.Intn(nz)},
		}, uint8(50+rng.Intn(200)))
	}
	// Sprinkle voxels so some cells have wide value ranges.
	for i := 0; i < 200; i++ {
		v.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), uint8(rng.Intn(256)))
	}
	return v
}

// TestRaycastRandomizedIdentity fuzzes the accelerated kernel against
// the reference over random volumes, transfer functions, cameras,
// boxes and option combinations. Deterministic seed: a
// failure reproduces.
func TestRaycastRandomizedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		v := randomVolume(rng)
		lo := rng.Intn(120)
		tf := transfer.Ramp("fuzz", lo, lo+1+rng.Intn(255-lo-1), 0.05+rng.Float64()*0.9)
		size := 40 + rng.Intn(41)
		cam := NewCamera(size, size, v.Bounds(), rng.Float64()*360, rng.Float64()*360)
		box := v.Bounds()
		if rng.Intn(2) == 0 { // random sub-box, as a partitioned rank sees
			var blo, bhi [3]int
			dims := [3]int{v.NX, v.NY, v.NZ}
			for a := 0; a < 3; a++ {
				blo[a] = rng.Intn(dims[a] - 1)
				bhi[a] = blo[a] + 1 + rng.Intn(dims[a]-blo[a]-1)
			}
			box = volume.Box{Lo: blo, Hi: bhi}
		}
		opt := Options{Shaded: rng.Intn(2) == 0}
		if rng.Intn(4) == 0 {
			opt.EarlyTermination = -1
		}
		label := fmt.Sprintf("iter %d (box=%v opts=%+v)", i, box, opt)
		want := RaycastReference(v, box, cam, tf, opt)
		got := Raycast(v, box, cam, tf, opt)
		requireIdentical(t, label, got, want)
		opt.Workers = 3
		requireIdentical(t, label+" workers=3", Raycast(v, box, cam, tf, opt), want)
	}
}

// TestRaycastStats sanity-checks the skip counters: the mostly-empty
// cube dataset must skip a large majority of its candidate samples, and
// the counters must add up between serial and parallel runs.
func TestRaycastStats(t *testing.T) {
	v := volume.SolidCube(64, 64, 28)
	tf := transfer.Cube()
	cam := NewCamera(96, 96, v.Bounds(), 20, 30)

	var serial Stats
	Raycast(v, v.Bounds(), cam, tf, Options{Workers: 1, Stats: &serial})
	s := serial.Snapshot()
	if s.Rays == 0 || s.Samples == 0 {
		t.Fatalf("no work recorded: %+v", s)
	}
	if s.SkipFraction() < 0.5 {
		t.Errorf("cube skip fraction = %.2f, want > 0.5 (samples=%d skipped=%d)",
			s.SkipFraction(), s.Samples, s.SamplesSkipped)
	}
	if s.CellsSkipped == 0 || s.CellsSkipped > s.CellsVisited {
		t.Errorf("cell counters inconsistent: %+v", s)
	}

	var par Stats
	Raycast(v, v.Bounds(), cam, tf, Options{Workers: 4, Stats: &par})
	if p := par.Snapshot(); p != s {
		t.Errorf("parallel counters %+v differ from serial %+v", p, s)
	}
}

// TestRaycastAllocsPinned pins the serial hot path's allocations: after
// the volume's macro grid is built, a Raycast performs only the image
// allocations plus the kernel — regressions (an escaping closure, a
// per-ray slice) show up here.
func TestRaycastAllocsPinned(t *testing.T) {
	v := volume.EngineBlock(32, 32, 16)
	tf := transfer.EngineLow()
	cam := NewCamera(48, 48, v.Bounds(), 20, 30)
	v.MacroCells() // amortized once per dataset, not part of the pin
	allocs := testing.AllocsPerRun(10, func() {
		Raycast(v, v.Bounds(), cam, tf, Options{Workers: 1})
	})
	// NewImage + Grow storage + rows + kernel + tile closure ≈ single
	// digits; 12 leaves slack for runtime jitter without letting a
	// per-ray or per-sample allocation (thousands) through.
	if allocs > 12 {
		t.Fatalf("Raycast serial allocations = %v, want <= 12", allocs)
	}
}
