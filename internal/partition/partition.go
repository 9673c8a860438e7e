// Package partition decomposes a volume into per-rank subvolumes and
// answers the ordering questions binary-swap compositing asks: who is my
// partner at stage k, and is my half-space in front of theirs for the
// current view direction?
//
// The decomposition is a kd-tree of depth d = log2 P. All boxes at one
// level share the same split axis (chosen as the largest remaining extent
// of the root), so a level is fully described by its axis. Rank bits map
// to tree paths with the most significant bit at the root: bit (d-1-l) of
// a rank selects the low (0) or high (1) side of the level-l split.
//
// Binary-swap merges the tree bottom-up: stage k (1-based) pairs ranks
// differing in bit (k-1), i.e. it merges across the level-(d-k) split
// planes — the deepest splits first, exactly the schedule of Ma et al.
// Compositing order across a split plane depends only on the view
// direction's sign along the split axis, which is what FrontSide encodes.
package partition

import (
	"fmt"
	"math/bits"

	"sortlast/internal/volume"
)

// Layout is the geometric contract a compositor needs from a partition:
// how many ranks there are, which subvolume each renders, and a
// view-dependent front-to-back rank order. Both *Decomposition (power of
// two) and *FoldPlan (any rank count) satisfy it, so compositors that
// never use binary-swap pairing — the tile-routed family — run at any P
// against either geometry.
type Layout interface {
	Size() int
	Box(r int) volume.Box
	// DepthOrder returns all ranks sorted front-to-back for the view
	// direction: sequential compositing in this order reproduces any
	// correct parallel schedule.
	DepthOrder(viewDir [3]float64) []int
}

// Decomposition is a kd-tree partition of a root box over P = 2^Depth
// ranks.
type Decomposition struct {
	Root  volume.Box
	Depth int          // log2 of the rank count
	Axes  []int        // split axis per level, len == Depth
	Boxes []volume.Box // per-rank subvolume, len == 1<<Depth
}

// Decompose splits root into p congruent-ish boxes for a power-of-two p.
// Each level halves every box along the axis with the largest remaining
// extent (ties broken x, y, z), so subvolumes stay as cubical as
// possible — the shape that keeps screen footprints compact.
func Decompose(root volume.Box, p int) (*Decomposition, error) {
	if p <= 0 || p&(p-1) != 0 {
		return nil, fmt.Errorf("partition: rank count %d is not a positive power of two", p)
	}
	if root.Empty() {
		return nil, fmt.Errorf("partition: empty root box %v", root)
	}
	depth := bits.TrailingZeros(uint(p))
	d := &Decomposition{
		Root:  root,
		Depth: depth,
		Axes:  make([]int, depth),
		Boxes: []volume.Box{root},
	}
	// Track a representative extent to choose each level's axis: all
	// boxes at a level are split the same way, so the first box stands
	// for all of them.
	for l := 0; l < depth; l++ {
		axis := d.Boxes[0].LargestAxis()
		if d.Boxes[0].Extent(axis) < 2 {
			return nil, fmt.Errorf("partition: box %v too thin to split %d more times",
				d.Boxes[0], depth-l)
		}
		d.Axes[l] = axis
		next := make([]volume.Box, 0, len(d.Boxes)*2)
		for _, b := range d.Boxes {
			mid := b.Lo[axis] + b.Extent(axis)/2
			lo, hi := b.Split(axis, mid)
			next = append(next, lo, hi)
		}
		d.Boxes = next
	}
	// The split loop above appends children in (low, high) order, which
	// makes the level-l choice land at bit (depth-1-l) automatically:
	// index = path from root, MSB first.
	return d, nil
}

// Size returns the rank count.
func (d *Decomposition) Size() int { return 1 << d.Depth }

// Box returns rank r's subvolume.
func (d *Decomposition) Box(r int) volume.Box { return d.Boxes[r] }

// Side returns which side (0 = low, 1 = high) of the level-l split rank r
// sits on.
func (d *Decomposition) Side(r, level int) int {
	return r >> (d.Depth - 1 - level) & 1
}

// Stages returns the number of binary-swap stages, log2 P.
func (d *Decomposition) Stages() int { return d.Depth }

// Partner returns the rank paired with r at 1-based stage k: the rank
// differing in bit k-1 (the level depth-k split).
func (d *Decomposition) Partner(r, stage int) int {
	return r ^ (1 << (stage - 1))
}

// StageLevel maps a 1-based compositing stage to the kd level whose split
// plane it merges across.
func (d *Decomposition) StageLevel(stage int) int { return d.Depth - stage }

// StageAxis returns the split axis merged at the given 1-based stage.
func (d *Decomposition) StageAxis(stage int) int {
	return d.Axes[d.StageLevel(stage)]
}

// FrontSide reports which side (0 = low coordinates, 1 = high) of the
// stage's split plane is nearer the viewer for rays travelling along
// viewDir. Rays with positive direction along the axis enter the low
// side first. A direction perpendicular to the axis never crosses the
// plane, so each ray sees only one side and either answer composites
// correctly; 0 is returned.
func (d *Decomposition) FrontSide(stage int, viewDir [3]float64) int {
	if viewDir[d.StageAxis(stage)] >= 0 {
		return 0
	}
	return 1
}

// RankInFront reports whether rank r's half is in front of its stage-k
// partner's half for the given view direction.
func (d *Decomposition) RankInFront(r, stage int, viewDir [3]float64) bool {
	return d.Side(r, d.StageLevel(stage)) == d.FrontSide(stage, viewDir)
}

// DepthOrder returns all ranks sorted front-to-back for the given view
// direction: the rank whose subvolume rays enter first comes first. Ranks
// on the front side of a higher-level (coarser) split strictly precede
// ranks behind it; the order is the lexicographic order of rank bits with
// each level's bit flipped when the high side is in front. Sequential
// compositing in this order reproduces the parallel result.
func (d *Decomposition) DepthOrder(viewDir [3]float64) []int {
	out := make([]int, d.Size())
	for i := range out {
		r := 0
		for l := 0; l < d.Depth; l++ {
			bit := i >> (d.Depth - 1 - l) & 1
			if viewDir[d.Axes[l]] < 0 {
				bit ^= 1
			}
			r |= bit << (d.Depth - 1 - l)
		}
		out[i] = r
	}
	return out
}
