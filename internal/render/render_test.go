package render

import (
	"math"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/partition"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

func box64() volume.Box { return volume.Box{Hi: [3]int{64, 64, 32}} }

func TestCameraBasisOrthonormal(t *testing.T) {
	angles := [][2]float64{{0, 0}, {30, 0}, {0, 45}, {27, 63}, {-40, 110}, {90, 90}}
	for _, a := range angles {
		cam := NewCamera(128, 128, box64(), a[0], a[1])
		vecs := [][3]float64{cam.U, cam.V, cam.Dir}
		for i, v := range vecs {
			if d := math.Abs(dot(v, v) - 1); d > 1e-12 {
				t.Errorf("rot %v: basis %d not unit (|v|^2-1 = %g)", a, i, d)
			}
			for j := i + 1; j < 3; j++ {
				if d := math.Abs(dot(v, vecs[j])); d > 1e-12 {
					t.Errorf("rot %v: basis %d,%d not orthogonal (%g)", a, i, j, d)
				}
			}
		}
	}
}

func TestProjectInvertsPlanePoint(t *testing.T) {
	cam := NewCamera(200, 150, box64(), 25, -40)
	for _, px := range []int{0, 7, 100, 199} {
		for _, py := range []int{0, 3, 74, 149} {
			p := cam.PlanePoint(px, py)
			fx, fy := cam.project(p)
			if math.Abs(fx-(float64(px)+0.5)) > 1e-9 || math.Abs(fy-(float64(py)+0.5)) > 1e-9 {
				t.Fatalf("pixel (%d,%d) round-tripped to (%v,%v)", px, py, fx, fy)
			}
		}
	}
}

func TestFootprintCoversProjection(t *testing.T) {
	cam := NewCamera(128, 128, box64(), 30, 50)
	b := volume.Box{Lo: [3]int{10, 20, 5}, Hi: [3]int{30, 40, 25}}
	foot := cam.Footprint(b)
	for _, corner := range b.Corners() {
		fx, fy := cam.project(corner)
		x, y := int(fx), int(fy)
		if x >= 0 && x < cam.W && y >= 0 && y < cam.H && !foot.Contains(x, y) {
			t.Errorf("corner projects to (%d,%d) outside footprint %v", x, y, foot)
		}
	}
}

func TestCameraFitsVolumeAtAnyRotation(t *testing.T) {
	// The whole volume footprint must stay inside the frame regardless of
	// rotation (the 0.92 margin guarantees it).
	b := volume.Box{Hi: [3]int{256, 256, 110}}
	for rx := 0.0; rx < 360; rx += 30 {
		for ry := 0.0; ry < 360; ry += 30 {
			cam := NewCamera(384, 384, b, rx, ry)
			for _, corner := range b.Corners() {
				fx, fy := cam.project(corner)
				if fx < 0 || fx > 384 || fy < 0 || fy > 384 {
					t.Fatalf("rot (%v,%v): corner projects outside frame (%v,%v)", rx, ry, fx, fy)
				}
			}
		}
	}
}

func TestRaycastEmptyVolumeIsBlank(t *testing.T) {
	v := volume.New(16, 16, 16)
	cam := NewCamera(32, 32, v.Bounds(), 0, 0)
	img := Raycast(v, v.Bounds(), cam, transfer.Cube(), Options{})
	if n := img.CountNonBlank(img.Full()); n != 0 {
		t.Errorf("empty volume rendered %d non-blank pixels", n)
	}
}

func TestRaycastOpaqueCubeCoversCenter(t *testing.T) {
	v := volume.SolidCube(32, 32, 32)
	cam := NewCamera(64, 64, v.Bounds(), 0, 0)
	img := Raycast(v, v.Bounds(), cam, transfer.Cube(), Options{})
	center := img.At(32, 32)
	if center.A < 0.99 {
		t.Errorf("center pixel alpha = %v, want ~1 for an opaque cube", center.A)
	}
	if corner := img.At(1, 1); !corner.Blank() {
		t.Errorf("corner pixel = %v, want blank", corner)
	}
	// The cube must occupy a small fraction of the frame.
	frac := float64(img.CountNonBlank(img.Full())) / float64(64*64)
	if frac < 0.01 || frac > 0.2 {
		t.Errorf("cube covers %.3f of the frame, expected a small compact footprint", frac)
	}
}

func TestRaycastIntensityMatchesMaterial(t *testing.T) {
	// A fully opaque material of value 255 under the cube transfer
	// function must produce intensity ~1 on its silhouette.
	v := volume.SolidCube(32, 32, 32)
	cam := NewCamera(64, 64, v.Bounds(), 0, 0)
	img := Raycast(v, v.Bounds(), cam, transfer.Cube(), Options{})
	p := img.At(32, 32)
	if p.I < 0.95 || p.I > 1.001 {
		t.Errorf("center intensity = %v, want ~1", p.I)
	}
}

// The master property: rendering each partition box separately and
// over-compositing the subimages in depth order equals rendering the
// whole volume at once. Early termination is disabled so the equality is
// near-exact (regrouping error only).
func TestPartitionedRenderMatchesSerial(t *testing.T) {
	vols := map[string]*volume.Volume{
		"engine": volume.EngineBlock(48, 48, 20),
		"head":   volume.HeadPhantom(48, 48, 22),
		"cube":   volume.SolidCube(48, 48, 20),
	}
	tfs := map[string]*transfer.Func{
		"engine": transfer.EngineLow(),
		"head":   transfer.Head(),
		"cube":   transfer.Cube(),
	}
	opt := Options{EarlyTermination: -1}
	for name, v := range vols {
		for _, p := range []int{2, 4, 8} {
			for _, rot := range [][2]float64{{0, 0}, {30, 45}} {
				cam := NewCamera(64, 64, v.Bounds(), rot[0], rot[1])
				serial := Raycast(v, v.Bounds(), cam, tfs[name], opt)

				dec, err := partition.Decompose(v.Bounds(), p)
				if err != nil {
					t.Fatal(err)
				}
				composed := frame.NewImage(64, 64)
				for _, r := range dec.DepthOrder(cam.Dir) {
					sub := Raycast(v, dec.Box(r), cam, tfs[name], opt)
					// composed (front so far) over sub (behind).
					b := sub.Bounds()
					if b.Empty() {
						continue
					}
					pixels := sub.PackRegion(b)
					composed.CompositeRegion(b, pixels, false)
				}
				if d := serial.MaxAbsDiff(composed, serial.Full()); d > 1e-9 {
					t.Errorf("%s P=%d rot=%v: composed differs from serial by %g", name, p, rot, d)
				}
			}
		}
	}
}

func TestEarlyTerminationCloseToExact(t *testing.T) {
	v := volume.HeadPhantom(40, 40, 20)
	cam := NewCamera(64, 64, v.Bounds(), 10, 20)
	exact := Raycast(v, v.Bounds(), cam, transfer.Head(), Options{EarlyTermination: -1})
	fast := Raycast(v, v.Bounds(), cam, transfer.Head(), Options{})
	if d := exact.MaxAbsDiff(fast, exact.Full()); d > 2e-3 {
		t.Errorf("early termination changes the image by %g", d)
	}
}

func TestShadedRenderDiffersButBounded(t *testing.T) {
	v := volume.Sphere(32, 32, 32, 0.8, 200)
	tf := transfer.Ramp("t", 100, 150, 0.9)
	cam := NewCamera(48, 48, v.Bounds(), 0, 0)
	flat := Raycast(v, v.Bounds(), cam, tf, Options{})
	shaded := Raycast(v, v.Bounds(), cam, tf, Options{Shaded: true})
	if flat.MaxAbsDiff(shaded, flat.Full()) == 0 {
		t.Error("shading must change the image")
	}
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			p := shaded.At(x, y)
			if p.I < 0 || p.I > 1.0001 || p.A < 0 || p.A > 1.0001 {
				t.Fatalf("shaded pixel (%d,%d) out of range: %v", x, y, p)
			}
		}
	}
}

func TestRaycastSubvolumeFootprintOnly(t *testing.T) {
	// A rank's image must have bounds no larger than its box footprint.
	v := volume.EngineBlock(48, 48, 20)
	cam := NewCamera(96, 96, v.Bounds(), 0, 0)
	dec, err := partition.Decompose(v.Bounds(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		img := Raycast(v, dec.Box(r), cam, transfer.EngineLow(), Options{})
		foot := cam.Footprint(dec.Box(r))
		if !foot.ContainsRect(img.Bounds()) {
			t.Errorf("rank %d: bounds %v exceed footprint %v", r, img.Bounds(), foot)
		}
	}
}
