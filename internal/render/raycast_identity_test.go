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
				opt.workers = w
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
			opt := Options{Shaded: shaded, workers: 4}
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

// blobVolume builds a volume whose occupancy is bounded: two to four
// filled blobs with noise sprinkled inside them only and zeros
// everywhere else, so a box's occupied hull is usually smaller than the
// box — the regime the kernel's clip works in.
func blobVolume(rng *rand.Rand) *volume.Volume {
	dims := [3]int{24 + rng.Intn(40), 24 + rng.Intn(40), 24 + rng.Intn(24)}
	v := volume.New(dims[0], dims[1], dims[2])
	for i := 0; i < 2+rng.Intn(3); i++ {
		var b volume.Box
		for a, n := range dims {
			b.Lo[a] = rng.Intn(n)
			b.Hi[a] = b.Lo[a] + 1 + rng.Intn(n/2)
		}
		v.Fill(b, uint8(50+rng.Intn(200)))
		for j := 0; j < 20; j++ { // Set drops voxels outside the volume
			v.Set(b.Lo[0]+rng.Intn(b.Dx()), b.Lo[1]+rng.Intn(b.Dy()), b.Lo[2]+rng.Intn(b.Dz()), uint8(rng.Intn(256)))
		}
	}
	return v
}

// randomBox returns a random non-empty sub-box of v, as a partitioned
// rank sees; aligned rounds it out to macro-cell boundaries (clipped to
// the volume).
func randomBox(rng *rand.Rand, v *volume.Volume, aligned bool) volume.Box {
	const m = volume.MacroCell
	var b volume.Box
	dims := [3]int{v.NX, v.NY, v.NZ}
	for a := 0; a < 3; a++ {
		b.Lo[a] = rng.Intn(dims[a] - 1)
		b.Hi[a] = b.Lo[a] + 1 + rng.Intn(dims[a]-b.Lo[a]-1)
		if aligned {
			b.Lo[a] &^= m - 1
			b.Hi[a] = min((b.Hi[a]+m-1)&^(m-1), dims[a])
		}
	}
	return b
}

// edgeVolume builds a volume whose sides are mostly not multiples of
// the macro cell, some as thin as one cell, holding boxes that touch
// its near and far faces and blocks
// saturated at 255, whose interiors sample to exactly v = 1. Rays then
// cross from cells whose runs read only in-volume voxels into border
// cells, and classify at the top table entry.
func edgeVolume(rng *rand.Rand) *volume.Volume {
	const m = volume.MacroCell
	var dims [3]int
	for a := range dims {
		dims[a] = m*(1+rng.Intn(6)) + 1 + rng.Intn(m-1) // 9 … 55
		if rng.Intn(4) == 0 {
			dims[a] = m - 1 + rng.Intn(4) // one cell, give or take a voxel
		}
	}
	v := volume.New(dims[0], dims[1], dims[2])
	if rng.Intn(3) == 0 { // content on every face
		v.Fill(v.Bounds(), uint8(1+rng.Intn(254)))
	}
	for i := 0; i < 2+rng.Intn(4); i++ {
		var b volume.Box
		for a, n := range dims {
			b.Lo[a] = rng.Intn(n)
			b.Hi[a] = b.Lo[a] + 2 + rng.Intn(n/2)
		}
		b.Lo[rng.Intn(3)] = 0
		b.Hi[rng.Intn(3)] = 1 << 20 // Fill clips it to the far face
		value := uint8(255)
		if i%2 == 1 {
			value = uint8(1 + rng.Intn(254))
		}
		v.Fill(b, value)
	}
	for i := 0; i < 100; i++ {
		v.Set(rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2]), uint8(rng.Intn(256)))
	}
	return v
}

// randomTable returns a transfer function that is not a ramp: runs of
// zeros, flat runs and random entries in random order, a band scaled
// by 0.25 as Head's soft tissue is (so opacity is not monotone), and in
// half the tables a non-zero Opacity[0], which makes empty space
// visible.
func randomTable(rng *rand.Rand) *transfer.Func {
	f := &transfer.Func{Name: "table"}
	scale := 0.05 + rng.Float64()*0.5
	for v := 0; v < 256; {
		kind, flat := rng.Intn(3), rng.Float64()*scale
		for n := 1 + rng.Intn(40); n > 0 && v < 256; n, v = n-1, v+1 {
			switch kind {
			case 1:
				f.Opacity[v] = flat
			case 2:
				f.Opacity[v] = rng.Float64() * scale
			}
			f.Intensity[v] = rng.Float64()
		}
	}
	lo := rng.Intn(200)
	for v := lo; v < lo+1+rng.Intn(56); v++ {
		f.Opacity[v] *= 0.25
	}
	if rng.Intn(2) == 0 {
		f.Opacity[0] = rng.Float64() * scale / 4
	} else {
		f.Opacity[0] = 0
	}
	return f
}

// randomRamp returns a random single-ramp transfer function.
func randomRamp(rng *rand.Rand) *transfer.Func {
	lo := rng.Intn(120)
	return transfer.Ramp("fuzz", lo, lo+1+rng.Intn(255-lo-1), 0.05+rng.Float64()*0.9)
}

// requireReference asserts Raycast equals RaycastReference over box,
// serially and with three workers.
func requireReference(t *testing.T, label string, v *volume.Volume, box volume.Box, cam *Camera, tf *transfer.Func, opt Options) {
	t.Helper()
	label = fmt.Sprintf("%s (box=%v opts=%+v)", label, box, opt)
	want := RaycastReference(v, box, cam, tf, opt)
	requireIdentical(t, label, Raycast(v, box, cam, tf, opt), want)
	opt.workers = 3
	requireIdentical(t, label+" workers=3", Raycast(v, box, cam, tf, opt), want)
}

// TestRaycastRandomizedIdentity fuzzes the accelerated kernel against
// the reference over random volumes, transfer functions, cameras,
// boxes and option combinations. Deterministic seeds: a failure
// reproduces.
func TestRaycastRandomizedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	randomOptions := func() Options {
		opt := Options{Shaded: rng.Intn(2) == 0}
		if rng.Intn(4) == 0 {
			opt.EarlyTermination = -1
		}
		return opt
	}
	for i := 0; i < iters; i++ {
		v := randomVolume(rng)
		tf := randomRamp(rng)
		size := 40 + rng.Intn(41)
		cam := NewCamera(size, size, v.Bounds(), rng.Float64()*360, rng.Float64()*360)
		box := v.Bounds()
		if rng.Intn(2) == 0 {
			box = randomBox(rng, v, false)
		}
		requireReference(t, fmt.Sprintf("iter %d", i), v, box, cam, tf, randomOptions())
	}

	// Occupancy-bounded scenes, where the clip to the occupied hull cuts
	// rays short: whole, cell-aligned and unaligned boxes, and a transfer
	// function that is zero everywhere (an empty hull: no ray is cast).
	// randomVolume's whole-volume noise puts a non-empty cell nearly
	// everywhere, so the loop above almost never clips.
	rng = rand.New(rand.NewSource(11))
	clipped := 0
	for i := 0; i < iters; i++ {
		v := blobVolume(rng)
		tf := randomRamp(rng)
		if i%8 == 7 {
			tf = &transfer.Func{Name: "zero"}
		}
		cam := NewCamera(56, 56, v.Bounds(), rng.Float64()*360, rng.Float64()*360)
		box := v.Bounds()
		if r := rng.Intn(3); r > 0 {
			box = randomBox(rng, v, r == 1)
		}
		opt := randomOptions()
		if newKernel(v, box, cam, tf, opt).clip != box {
			clipped++
		}
		requireReference(t, fmt.Sprintf("blob iter %d", i), v, box, cam, tf, opt)
	}
	t.Logf("the clip cut the box in %d of %d blob iterations", clipped, iters)
	if 2*clipped < iters {
		t.Errorf("the clip differed from the box in %d of %d blob iterations, want at least half", clipped, iters)
	}

	// Classification and border edge cases: tables that are not ramps,
	// samples at exactly v = 1, and runs that cross from inner cells
	// into cells that read past the volume's far faces.
	rng = rand.New(rand.NewSource(13))
	for i := 0; i < iters; i++ {
		v := edgeVolume(rng)
		tf := randomTable(rng)
		if i%4 == 3 {
			tf = randomRamp(rng)
		}
		cam := NewCamera(48, 48, v.Bounds(), rng.Float64()*360, rng.Float64()*360)
		box := v.Bounds()
		if rng.Intn(3) == 0 {
			box = randomBox(rng, v, false)
		}
		requireReference(t, fmt.Sprintf("edge iter %d", i), v, box, cam, tf, randomOptions())
	}
}

// TestFloorCeilInt pins floorInt and ceilInt to int(math.Floor) and
// int(math.Ceil) at the values where truncation and rounding part ways:
// signed zeros, halves, integers and their neighbours one ulp away, and
// magnitudes where float64 spacing reaches 1, 2 and 2¹⁰.
func TestFloorCeilInt(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 0.5, 1e-300, 1 << 52, 1<<53 + 2, 1 << 62}
	for _, k := range []float64{1, 2, 7, 8, 255, 1 << 20} {
		xs = append(xs, k, math.Nextafter(k, 0), math.Nextafter(k, math.Inf(1)), k+0.5)
	}
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			if got, want := floorInt(v), int(math.Floor(v)); got != want {
				t.Errorf("floorInt(%g) = %d, want %d", v, got, want)
			}
			if got, want := ceilInt(v), int(math.Ceil(v)); got != want {
				t.Errorf("ceilInt(%g) = %d, want %d", v, got, want)
			}
		}
	}
}

// boxSamples counts the in-box sample points of every ray the reference
// kernel casts over box: the work of a kernel that proves nothing empty.
func boxSamples(cam *Camera, box volume.Box) int64 {
	foot := cam.Footprint(box)
	var n int64
	for py := foot.Y0; py < foot.Y1; py++ {
		for px := foot.X0; px < foot.X1; px++ {
			o := cam.PlanePoint(px, py)
			tMin, tMax, ok := cam.rayBox(o, box)
			for k := int(math.Floor(tMin - 0.5)); ok && k <= int(math.Ceil(tMax-0.5)); k++ {
				t := float64(k) + 0.5
				if box.Contains(o[0]+t*cam.Dir[0], o[1]+t*cam.Dir[1], o[2]+t*cam.Dir[2]) {
					n++
				}
			}
		}
	}
	return n
}

// TestRaycastStats sanity-checks the work counters: on the mostly-empty
// cube dataset the kernel evaluates a small share of the samples the
// reference visits in the box (the occupied-hull clip and the macro
// cells prove the rest transparent), the macro-cell skip still fires on
// empty cells inside the hull, and the counters add up between serial
// and parallel runs.
func TestRaycastStats(t *testing.T) {
	// Two slabs 32 voxels apart along x, cast along +x: the hull spans
	// both, so only traverse's empty-cell skip can pass over the gap.
	gap := volume.New(64, 24, 24)
	gap.Fill(volume.Box{Lo: [3]int{4, 4, 4}, Hi: [3]int{16, 20, 20}}, 200)
	gap.Fill(volume.Box{Lo: [3]int{48, 4, 4}, Hi: [3]int{60, 20, 20}}, 200)
	gapCam := axisCamera(24, 24, [3]float64{0, 1, 0}, [3]float64{0, 0, 1}, [3]float64{1, 0, 0}, [3]float64{0, 12, 12})
	gapTF := transfer.Ramp("gap", 60, 160, 0.05)
	var g Stats
	requireIdentical(t, "gap", Raycast(gap, gap.Bounds(), gapCam, gapTF, Options{workers: 1, Stats: &g}),
		RaycastReference(gap, gap.Bounds(), gapCam, gapTF, Options{}))
	if gs := g.Snapshot(); gs.CellsSkipped == 0 || gs.SamplesSkipped == 0 {
		t.Errorf("no empty cell inside the hull was skipped: %+v", gs)
	}

	v := volume.SolidCube(64, 64, 28)
	tf := transfer.Cube()
	cam := NewCamera(96, 96, v.Bounds(), 20, 30)

	var serial Stats
	Raycast(v, v.Bounds(), cam, tf, Options{workers: 1, Stats: &serial})
	s := serial.Snapshot()
	if s.Rays == 0 || s.Samples == 0 {
		t.Fatalf("no work recorded: %+v", s)
	}
	if all := boxSamples(cam, v.Bounds()); 20*s.Samples > all {
		t.Errorf("cube evaluated %d samples, want at most 5 %% of the box's %d", s.Samples, all)
	}
	if s.CellsSkipped > s.CellsVisited {
		t.Errorf("cell counters inconsistent: %+v", s)
	}

	var par Stats
	Raycast(v, v.Bounds(), cam, tf, Options{workers: 4, Stats: &par})
	if p := par.Snapshot(); p != s {
		t.Errorf("parallel counters %+v differ from serial %+v", p, s)
	}
}

// TestRaycastWorkCountersPinned pins the work counters exactly on one
// fixed head-phantom scene, serially and with three workers. Which
// samples are evaluated, skipped or cut off by early termination, and
// how they are counted, must not move any of them.
func TestRaycastWorkCountersPinned(t *testing.T) {
	v := volume.HeadPhantom(96, 96, 48)
	tf := transfer.Head()
	cam := NewCamera(96, 96, v.Bounds(), 20, 30)
	want := StatsSnapshot{Rays: 3630, Samples: 90511, SamplesSkipped: 48221, CellsVisited: 28485, CellsSkipped: 11165}
	for _, w := range []int{1, 3} {
		var st Stats
		Raycast(v, v.Bounds(), cam, tf, Options{workers: w, Stats: &st})
		if got := st.Snapshot(); got != want {
			t.Errorf("workers=%d: counters %+v, want %+v", w, got, want)
		}
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
		Raycast(v, v.Bounds(), cam, tf, Options{workers: 1})
	})
	// NewImage + GrowExact storage + rows + kernel + tile closure ≈ single
	// digits; 12 leaves slack for runtime jitter without letting a
	// per-ray or per-sample allocation (thousands) through.
	if allocs > 12 {
		t.Fatalf("Raycast serial allocations = %v, want <= 12", allocs)
	}
}
