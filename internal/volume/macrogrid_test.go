package volume

import (
	"sync"
	"testing"
)

// bruteCellRange recomputes a cell's bounds the slow way, via At (which
// zero-extends), over the support-expanded voxel range.
func bruteCellRange(v *Volume, cx, cy, cz int) (mn, mx uint8) {
	mn = 255
	for z := cz*MacroCell - 1; z <= cz*MacroCell+MacroCell; z++ {
		for y := cy*MacroCell - 1; y <= cy*MacroCell+MacroCell; y++ {
			for x := cx*MacroCell - 1; x <= cx*MacroCell+MacroCell; x++ {
				s := v.At(x, y, z)
				if s < mn {
					mn = s
				}
				if s > mx {
					mx = s
				}
			}
		}
	}
	return mn, mx
}

func TestMacroGridMatchesBruteForce(t *testing.T) {
	// Dimensions deliberately not multiples of the cell size, so the
	// last cell row is partial on every axis.
	v := EngineBlock(45, 38, 21)
	g := v.MacroCells()
	wantCX, wantCY, wantCZ := 6, 5, 3
	if g.CX != wantCX || g.CY != wantCY || g.CZ != wantCZ {
		t.Fatalf("cell counts %dx%dx%d, want %dx%dx%d", g.CX, g.CY, g.CZ, wantCX, wantCY, wantCZ)
	}
	for cz := 0; cz < g.CZ; cz++ {
		for cy := 0; cy < g.CY; cy++ {
			for cx := 0; cx < g.CX; cx++ {
				mn, mx, ok := g.Range(cx, cy, cz)
				if !ok {
					t.Fatalf("cell (%d,%d,%d) reported out of range", cx, cy, cz)
				}
				wantMn, wantMx := bruteCellRange(v, cx, cy, cz)
				if mn != wantMn || mx != wantMx {
					t.Fatalf("cell (%d,%d,%d) = [%d,%d], want [%d,%d]",
						cx, cy, cz, mn, mx, wantMn, wantMx)
				}
			}
		}
	}
}

// TestMacroGridBorderIncludesZero pins the zero-extension rule: any cell
// whose expanded support leaves the volume must report Min 0, because
// samples near the border interpolate against implicit zeros.
func TestMacroGridBorderIncludesZero(t *testing.T) {
	v := New(16, 16, 16)
	for i := range v.Data {
		v.Data[i] = 200 // uniformly dense: interior cells must NOT see 0
	}
	g := v.MacroCells()
	for cz := 0; cz < g.CZ; cz++ {
		for cy := 0; cy < g.CY; cy++ {
			for cx := 0; cx < g.CX; cx++ {
				mn, mx, _ := g.Range(cx, cy, cz)
				if mn != 0 {
					t.Errorf("border cell (%d,%d,%d) Min = %d, want 0", cx, cy, cz, mn)
				}
				if mx != 200 {
					t.Errorf("cell (%d,%d,%d) Max = %d, want 200", cx, cy, cz, mx)
				}
			}
		}
	}
	// A 32³ volume has true interior cells (cell (1,1,1) spans voxels
	// [8,16) expanded to [7,16], all inside): those must keep Min 200.
	v2 := New(32, 32, 32)
	for i := range v2.Data {
		v2.Data[i] = 200
	}
	mn, _, _ := v2.MacroCells().Range(1, 1, 1)
	if mn != 200 {
		t.Errorf("interior cell Min = %d, want 200", mn)
	}
}

func TestMacroGridRangeOutOfBounds(t *testing.T) {
	g := New(8, 8, 8).MacroCells()
	for _, c := range [][3]int{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		if _, _, ok := g.Range(c[0], c[1], c[2]); ok {
			t.Errorf("Range(%v) ok, want out-of-range", c)
		}
	}
}

// TestMacroCellsCached asserts the grid is built once and shared, even
// under concurrent first use (the serving tier's rank goroutines hit the
// volume simultaneously on frame 1).
func TestMacroCellsCached(t *testing.T) {
	v := Sphere(24, 24, 24, 0.8, 180)
	grids := make([]*MacroGrid, 8)
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			grids[i] = v.MacroCells()
		}(i)
	}
	wg.Wait()
	for i, g := range grids {
		if g != grids[0] {
			t.Fatalf("goroutine %d got a different grid pointer", i)
		}
	}
}
