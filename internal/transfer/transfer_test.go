package transfer

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestRampShape(t *testing.T) {
	f := Ramp("test", 50, 150, 0.8)
	if op, _ := f.Classify(0.1); op != 0 {
		t.Errorf("below threshold opacity = %v, want 0", op)
	}
	if op, _ := f.Classify(0.9); op != 0.8 {
		t.Errorf("above hi opacity = %v, want 0.8", op)
	}
	opMid, _ := f.Classify(100.0 / 255)
	if opMid <= 0 || opMid >= 0.8 {
		t.Errorf("mid-ramp opacity = %v, want strictly between 0 and 0.8", opMid)
	}
}

func TestRampPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Ramp("bad", 100, 50, 1)
}

func TestClassifyBoundsProperty(t *testing.T) {
	funcs := []*Func{EngineLow(), EngineHigh(), Head(), Cube()}
	cfg := &quick.Config{MaxCount: 2000, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(r.Float64()*1.4 - 0.2) // include out-of-range
	}}
	for _, f := range funcs {
		err := quick.Check(func(v float64) bool {
			op, in := f.Classify(v)
			return op >= 0 && op <= 1 && in >= 0 && in <= 1
		}, cfg)
		if err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestClassifyInterpolatesContinuously(t *testing.T) {
	f := EngineLow()
	// Small input changes must give small opacity changes.
	for v := 0.0; v < 0.999; v += 0.001 {
		a, _ := f.Classify(v)
		b, _ := f.Classify(v + 0.001)
		if d := b - a; d > 0.01 || d < -0.01 {
			t.Fatalf("opacity jump %v at v=%v", d, v)
		}
	}
}

func TestEngineThresholds(t *testing.T) {
	low, high := EngineLow(), EngineHigh()
	// A casting-density value (~95/255) is visible under low, invisible
	// under high.
	v := 95.0 / 255
	if op, _ := low.Classify(v); op <= 0 {
		t.Error("casting must be visible under engine_low")
	}
	if op, _ := high.Classify(v); op != 0 {
		t.Error("casting must be invisible under engine_high")
	}
	// Liner density (~210/255) is visible under both.
	v = 210.0 / 255
	if op, _ := low.Classify(v); op <= 0 {
		t.Error("liner must be visible under engine_low")
	}
	if op, _ := high.Classify(v); op <= 0 {
		t.Error("liner must be visible under engine_high")
	}
}

func TestCubeOpaque(t *testing.T) {
	f := Cube()
	if op, _ := f.Classify(1); op != 1 {
		t.Errorf("cube material opacity = %v, want 1", op)
	}
	if op, _ := f.Classify(0); op != 0 {
		t.Error("empty space must stay transparent")
	}
}

// A preset is built once and shared: every call returns the same Func.
func TestPreset(t *testing.T) {
	for _, name := range []string{"engine_low", "engine_high", "head", "cube"} {
		f, err := Preset(name)
		if err != nil || f.Name != name {
			t.Errorf("Preset(%q) = %v, %v", name, f, err)
		}
		if again, _ := Preset(name); again != f {
			t.Errorf("Preset(%q) built a second Func", name)
		}
	}
	if _, err := Preset("bogus"); err == nil {
		t.Error("unknown preset must error")
	}
}

func TestHeadSuppressesSoftTissue(t *testing.T) {
	f := Head()
	softOp, _ := f.Classify(110.0 / 255) // brain
	boneOp, _ := f.Classify(215.0 / 255) // skull
	if softOp >= boneOp {
		t.Errorf("soft tissue opacity %v must be below bone %v", softOp, boneOp)
	}
}

// NonZeroBelow counts the non-zero opacities below each index, and is
// built once per Func: a second call returns the same table.
func TestNonZeroBelow(t *testing.T) {
	for _, f := range []*Func{EngineHigh(), Head(), {Name: "zero"}} {
		tab := f.NonZeroBelow()
		var nz int32
		for j := 0; j <= 256; j++ {
			if tab[j] != nz {
				t.Fatalf("%s: table[%d] = %d, want %d", f.Name, j, tab[j], nz)
			}
			if j < 256 && f.Opacity[j] != 0 {
				nz++
			}
		}
		if f.NonZeroBelow() != tab {
			t.Errorf("%s: the table was built twice", f.Name)
		}
	}
}

// Every rank of a frame renders with the same Func at once, so the
// first NonZeroBelow calls race to build the table: each must see a
// complete, correct one (run under -race).
func TestNonZeroBelowConcurrentFirstUse(t *testing.T) {
	want := *Head().NonZeroBelow()
	f := Head()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if *f.NonZeroBelow() != want {
				t.Error("a concurrent first use saw a different table")
			}
		}()
	}
	wg.Wait()
}
