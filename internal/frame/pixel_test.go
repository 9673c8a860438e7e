package frame

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type reflectValue = reflect.Value

func reflectValueOf(v any) reflect.Value { return reflect.ValueOf(v) }

func TestOverIdentities(t *testing.T) {
	p := Pixel{I: 0.4, A: 0.7}
	blank := Pixel{}
	if got := Over(blank, p); got != p {
		t.Errorf("blank over p = %v, want %v", got, p)
	}
	if got := Over(p, blank); got != p {
		t.Errorf("p over blank = %v, want %v", got, p)
	}
	opaque := Pixel{I: 0.9, A: 1}
	if got := Over(opaque, p); got != opaque {
		t.Errorf("opaque over p = %v, want %v (back must be invisible)", got, opaque)
	}
}

func TestOverAccumulatesOpacity(t *testing.T) {
	f := Pixel{I: 0.2, A: 0.5}
	b := Pixel{I: 0.6, A: 0.8}
	got := Over(f, b)
	want := Pixel{I: 0.2 + 0.5*0.6, A: 0.5 + 0.5*0.8}
	if !got.NearlyEqual(want, 1e-15) {
		t.Errorf("Over = %v, want %v", got, want)
	}
	if got.A < f.A || got.A < 0 || got.A > 1 {
		t.Errorf("opacity %v out of range or decreased", got.A)
	}
}

func TestOverIntoMatchesOver(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: pixelPairValues}
	err := quick.Check(func(f, b Pixel) bool {
		want := Over(f, b)
		got := b
		OverInto(f, &got)
		return got == want
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// Over must be associative (exactly in real arithmetic; here within a
// tight floating-point tolerance), since parallel compositing relies on
// regrouping.
func TestOverAssociativeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Values: pixelTripleValues}
	err := quick.Check(func(a, b, c Pixel) bool {
		left := Over(Over(a, b), c)
		right := Over(a, Over(b, c))
		return left.NearlyEqual(right, 1e-12)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// Opacity is monotonically non-decreasing under over and stays in [0,1].
func TestOverOpacityMonotoneProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Values: pixelPairValues}
	err := quick.Check(func(f, b Pixel) bool {
		out := Over(f, b)
		return out.A >= f.A-1e-15 && out.A <= 1+1e-12 && out.A >= -1e-12
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func randPixel(r *rand.Rand) Pixel {
	a := r.Float64()
	return Pixel{I: r.Float64() * a, A: a}
}

func pixelPairValues(vals []reflectValue, r *rand.Rand) {
	for i := range vals {
		vals[i] = reflectValueOf(randPixel(r))
	}
}

func pixelTripleValues(vals []reflectValue, r *rand.Rand) {
	pixelPairValues(vals, r)
}

func TestBlank(t *testing.T) {
	if !(Pixel{}).Blank() {
		t.Error("zero pixel must be blank")
	}
	if (Pixel{I: 0.1, A: 0.1}).Blank() {
		t.Error("non-zero pixel must not be blank")
	}
}

func TestClampAndGray(t *testing.T) {
	p := Pixel{I: 1.5, A: -0.2}
	c := p.clamp()
	if c.I != 1 || c.A != 0 {
		t.Errorf("Clamp = %v", c)
	}
	if g := (Pixel{I: 1, A: 1}).Gray(); g != 255 {
		t.Errorf("Gray = %d, want 255", g)
	}
	if g := (Pixel{}).Gray(); g != 0 {
		t.Errorf("Gray = %d, want 0", g)
	}
	if g := (Pixel{I: 0.5, A: 1}).Gray(); g != 128 {
		t.Errorf("Gray(0.5) = %d, want 128", g)
	}
}

func TestPixelWireRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(i, a float64) bool {
		if math.IsNaN(i) || math.IsNaN(a) {
			return true
		}
		p := Pixel{I: i, A: a}
		var buf [PixelBytes]byte
		if n := PutPixel(buf[:], p); n != PixelBytes {
			return false
		}
		return GetPixel(buf[:]) == p
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPackUnpackPixels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pixels := make([]Pixel, 257)
	for i := range pixels {
		pixels[i] = randPixel(r)
	}
	buf := PackPixels(pixels)
	if len(buf) != len(pixels)*PixelBytes {
		t.Fatalf("packed %d bytes, want %d", len(buf), len(pixels)*PixelBytes)
	}
	back := UnpackPixels(buf, len(pixels))
	for i := range pixels {
		if back[i] != pixels[i] {
			t.Fatalf("pixel %d: got %v want %v", i, back[i], pixels[i])
		}
	}
}

func TestNearlyEqual(t *testing.T) {
	a := Pixel{I: 0.5, A: 0.5}
	b := Pixel{I: 0.5 + 1e-9, A: 0.5}
	if !a.NearlyEqual(b, 1e-8) {
		t.Error("pixels within eps must be nearly equal")
	}
	if a.NearlyEqual(b, 1e-10) {
		t.Error("pixels beyond eps must not be nearly equal")
	}
}
