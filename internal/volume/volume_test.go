package volume

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAtSetAndOutOfRange(t *testing.T) {
	v := New(4, 5, 6)
	v.Set(1, 2, 3, 42)
	if v.At(1, 2, 3) != 42 {
		t.Error("Set/At round trip failed")
	}
	if v.At(-1, 0, 0) != 0 || v.At(4, 0, 0) != 0 || v.At(0, 5, 0) != 0 || v.At(0, 0, 6) != 0 {
		t.Error("out-of-range reads must be 0")
	}
	v.Set(-1, 0, 0, 9) // must not panic or write
	v.Set(4, 5, 6, 9)
	if v.CountAbove(0) != 1 {
		t.Error("out-of-range writes must be ignored")
	}
}

func TestIndexLayoutXFastest(t *testing.T) {
	v := New(3, 4, 5)
	if v.Index(1, 0, 0) != 1 {
		t.Error("x must be fastest")
	}
	if v.Index(0, 1, 0) != 3 {
		t.Error("y stride must be NX")
	}
	if v.Index(0, 0, 1) != 12 {
		t.Error("z stride must be NX*NY")
	}
}

func TestSampleAtVoxelCenters(t *testing.T) {
	v := New(8, 8, 8)
	v.Set(3, 4, 5, 200)
	got := v.Sample(3.5, 4.5, 5.5)
	want := 200.0 / 255
	if got != want {
		t.Errorf("center sample = %v, want %v", got, want)
	}
	if v.Sample(0.5, 0.5, 0.5) != 0 {
		t.Error("empty voxel center must sample 0")
	}
}

func TestSampleInterpolatesLinearly(t *testing.T) {
	v := New(4, 4, 4)
	v.Set(1, 1, 1, 100)
	v.Set(2, 1, 1, 200)
	// Halfway between the two centers along x.
	got := v.Sample(2.0, 1.5, 1.5)
	want := 150.0 / 255
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("midpoint sample = %v, want %v", got, want)
	}
}

func TestSampleBoundedProperty(t *testing.T) {
	v := New(8, 8, 8)
	r := rand.New(rand.NewSource(1))
	for i := range v.Data {
		v.Data[i] = uint8(r.Intn(256))
	}
	cfg := &quick.Config{MaxCount: 2000, Values: func(vals []reflect.Value, r *rand.Rand) {
		for i := range vals {
			vals[i] = reflect.ValueOf(r.Float64()*12 - 2)
		}
	}}
	err := quick.Check(func(x, y, z float64) bool {
		s := v.Sample(x, y, z)
		return s >= 0 && s <= 1
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestFillClipsToGrid(t *testing.T) {
	v := New(4, 4, 4)
	v.Fill(Box{Lo: [3]int{-2, -2, -2}, Hi: [3]int{2, 2, 2}}, 7)
	if v.CountAbove(0) != 8 {
		t.Errorf("filled %d voxels, want 8", v.CountAbove(0))
	}
}

func TestBoxOperations(t *testing.T) {
	b := Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{10, 20, 30}}
	if b.Dx() != 10 || b.Dy() != 20 || b.Dz() != 30 || b.Volume() != 6000 {
		t.Error("extent math wrong")
	}
	if b.LargestAxis() != 2 {
		t.Error("largest axis must be z")
	}
	lo, hi := b.Split(1, 5)
	if lo.Hi[1] != 5 || hi.Lo[1] != 5 || lo.Volume()+hi.Volume() != b.Volume() {
		t.Error("split must partition the box")
	}
	if !b.Contains(0, 0, 0) || b.Contains(10, 0, 0) {
		t.Error("half-open containment wrong")
	}
	in := b.Intersect(Box{Lo: [3]int{5, 5, 5}, Hi: [3]int{15, 15, 15}})
	if in != (Box{Lo: [3]int{5, 5, 5}, Hi: [3]int{10, 15, 15}}) {
		t.Errorf("intersect = %v", in)
	}
	if !(Box{}).Empty() || b.Empty() {
		t.Error("emptiness wrong")
	}
	disjoint := b.Intersect(Box{Lo: [3]int{50, 0, 0}, Hi: [3]int{60, 1, 1}})
	if !disjoint.Empty() {
		t.Error("disjoint intersect must be empty")
	}
	c := b.Center()
	if c != [3]float64{5, 10, 15} {
		t.Errorf("center = %v", c)
	}
	if len(b.Corners()) != 8 {
		t.Error("corners")
	}
	if b.String() == "" {
		t.Error("String must be non-empty")
	}
}

func TestGenerateDatasets(t *testing.T) {
	for _, name := range []string{DatasetEngine, DatasetHead, DatasetCube} {
		v, err := Generate(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.NX != 256 || v.NY != 256 {
			t.Errorf("%s: dims %dx%dx%d", name, v.NX, v.NY, v.NZ)
		}
		if v.CountAbove(0) == 0 {
			t.Errorf("%s: generated an empty volume", name)
		}
	}
	if _, err := Generate("nope"); err == nil {
		t.Error("unknown dataset must error")
	}
}

func TestDatasetDensitySpectrum(t *testing.T) {
	// The phantoms must span the sparsity spectrum the paper relies on:
	// at a high threshold the engine keeps only its liners, the head only
	// its skull, and the cube everything (it is small but solid).
	eng := EngineBlock(128, 128, 55)
	head := HeadPhantom(128, 128, 56)
	cube := SolidCube(128, 128, 55)

	total := 128 * 128 * 55
	engLow := float64(eng.CountAbove(50)) / float64(total)
	engHigh := float64(eng.CountAbove(180)) / float64(total)
	if engHigh >= engLow/2 {
		t.Errorf("engine high-threshold density %.3f not much sparser than low %.3f", engHigh, engLow)
	}
	headBone := float64(head.CountAbove(180)) / float64(total)
	headAll := float64(head.CountAbove(30)) / float64(total)
	if headBone >= headAll/2 {
		t.Errorf("head bone density %.3f not sparser than full %.3f", headBone, headAll)
	}
	cubeFrac := float64(cube.CountAbove(0)) / float64(total)
	if cubeFrac > 0.05 || cubeFrac == 0 {
		t.Errorf("cube density %.4f out of expected small range", cubeFrac)
	}
}

func TestCubeIsCenteredAndSolid(t *testing.T) {
	v := SolidCube(64, 64, 64)
	if v.At(32, 32, 32) != 255 {
		t.Error("cube center must be solid")
	}
	if v.At(1, 1, 1) != 0 || v.At(62, 62, 62) != 0 {
		t.Error("corners must be empty")
	}
}

func TestRampAndChecker(t *testing.T) {
	rmp := Ramp(8, 4, 4, 0)
	if rmp.At(0, 0, 0) >= rmp.At(7, 0, 0) {
		t.Error("ramp must grow along its axis")
	}
	if rmp.CountAbove(0) != 8*4*4 {
		t.Error("ramp must be fully dense")
	}
	chk := Checker(8, 8, 8, 2, 100)
	n := chk.CountAbove(0)
	if n != 8*8*8/2 {
		t.Errorf("checker filled %d voxels, want half", n)
	}
}

func TestSphere(t *testing.T) {
	v := Sphere(32, 32, 32, 0.5, 200)
	if v.At(16, 16, 16) != 200 {
		t.Error("sphere center solid")
	}
	if v.At(0, 0, 0) != 0 {
		t.Error("sphere corner empty")
	}
}

func TestGradientPointsOutward(t *testing.T) {
	v := Sphere(32, 32, 32, 0.8, 255)
	// Just inside the +x surface the gradient must point in -x (value
	// decreases outward → central difference negative along +x).
	g := v.Gradient(28, 16, 16)
	if g[0] >= 0 {
		t.Errorf("gradient x = %v, want negative at +x boundary", g[0])
	}
}
