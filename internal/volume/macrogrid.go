package volume

// Macro-cell constants: the volume is summarized at 8³-voxel
// granularity. 8 balances skip resolution against summary size (a
// 256×256×110 volume folds into ~14k cells = 28 KB) and makes the
// grid's world-space cell boundaries exact powers of two, so the ray
// caster's DDA boundary arithmetic stays exact.
const (
	// MacroShift is the log2 edge length of a macro cell in voxels.
	MacroShift = 3
	// MacroCell is the macro-cell edge length in voxels.
	MacroCell = 1 << MacroShift
)

// MacroGrid is a min/max summary of a volume at macro-cell granularity,
// the classic empty-space-skipping structure: a ray caster can classify
// a whole cell against the transfer function's zero-opacity spans and
// skip all samples inside it. Cell (cx, cy, cz) covers voxels
// [cx·8, cx·8+8) × … — but its Min/Max are computed over that range
// EXPANDED BY ONE VOXEL on every side, because a trilinear sample taken
// anywhere inside the cell's world extent interpolates corner voxels up
// to one index outside it (Volume.Sample is cell-centered: position p
// reads voxels floor(p−0.5) and floor(p−0.5)+1). With the expansion,
// every sample whose position lies inside the cell is bounded by
// [Min, Max] — the property the skip-safety proof in DESIGN.md §11
// rests on. Voxels outside the volume read as 0 (Volume.At
// zero-extends) and count toward Min.
type MacroGrid struct {
	CX, CY, CZ int // cell counts per axis (ceil of dimension / 8)
	Min, Max   []uint8
}

// Range returns cell (cx, cy, cz)'s value bounds; ok is false outside
// the grid, which callers must treat as "cannot skip".
func (g *MacroGrid) Range(cx, cy, cz int) (mn, mx uint8, ok bool) {
	if cx < 0 || cy < 0 || cz < 0 || cx >= g.CX || cy >= g.CY || cz >= g.CZ {
		return 0, 0, false
	}
	i := (cz*g.CY+cy)*g.CX + cx
	return g.Min[i], g.Max[i], true
}

// cells returns the total cell count.
func (g *MacroGrid) cells() int { return g.CX * g.CY * g.CZ }

// MacroCells returns the volume's macro-cell grid, building it on first
// use and caching it for the volume's lifetime (GOMAXPROCS workers build
// disjoint cell slabs: 9–10 ms for the paper-sized datasets on a 2-vCPU
// Xeon at GOMAXPROCS 2, 17–18 ms on one worker). Safe for
// concurrent callers; the volume must not be mutated after the first
// call, which holds for the procedural datasets (generated once, then
// immutable and shared through the harness dataset cache).
func (v *Volume) MacroCells() *MacroGrid {
	v.macroOnce.Do(func() { v.macro = buildMacroGrid(v) })
	return v.macro
}

func buildMacroGrid(v *Volume) *MacroGrid {
	g := &MacroGrid{
		CX: (v.NX + MacroCell - 1) >> MacroShift,
		CY: (v.NY + MacroCell - 1) >> MacroShift,
		CZ: (v.NZ + MacroCell - 1) >> MacroShift,
	}
	n := g.cells()
	g.Min = make([]uint8, n)
	g.Max = make([]uint8, n)
	slabs(g.CZ, func(cz0, cz1 int) {
		i := cz0 * g.CY * g.CX
		for cz := cz0; cz < cz1; cz++ {
			for cy := 0; cy < g.CY; cy++ {
				for cx := 0; cx < g.CX; cx++ {
					g.Min[i], g.Max[i] = cellRange(v, cx, cy, cz)
					i++
				}
			}
		}
	})
	return g
}

// cellRange scans the cell's voxel range expanded by one on every side.
// Where the expanded range leaves the volume, the out-of-range voxels
// are the zeros Volume.At reports, folded in without touching memory.
func cellRange(v *Volume, cx, cy, cz int) (mn, mx uint8) {
	x0, x1 := cx*MacroCell-1, cx*MacroCell+MacroCell // inclusive
	y0, y1 := cy*MacroCell-1, cy*MacroCell+MacroCell
	z0, z1 := cz*MacroCell-1, cz*MacroCell+MacroCell
	mn = 255
	if x0 < 0 || y0 < 0 || z0 < 0 || x1 >= v.NX || y1 >= v.NY || z1 >= v.NZ {
		mn = 0 // zero-extended border voxels participate
		x0, y0, z0 = max(x0, 0), max(y0, 0), max(z0, 0)
		x1, y1, z1 = min(x1, v.NX-1), min(y1, v.NY-1), min(z1, v.NZ-1)
	}
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			base := (z*v.NY + y) * v.NX
			for _, s := range v.Data[base+x0 : base+x1+1] {
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
