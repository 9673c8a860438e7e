// Package partition decomposes a volume into per-rank subvolumes and
// answers the ordering questions binary-swap compositing asks: who is my
// partner at stage k, and is my half-space in front of theirs for the
// current view direction?
//
// The decomposition is a kd-tree of depth d = log2 Core over the largest
// power of two Core ≤ P ranks. All boxes at one level share the same
// split axis (chosen as the largest remaining extent of the root), so a
// level is fully described by its axis. Rank bits map to tree paths with
// the most significant bit at the root: bit (d-1-l) of a rank selects
// the low (0) or high (1) side of the level-l split.
//
// Binary-swap merges the tree bottom-up: stage k (1-based) pairs ranks
// differing in bit (k-1), i.e. it merges across the level-(d-k) split
// planes — the deepest splits first, exactly the schedule of Ma et al.
// Compositing order across a split plane depends only on the view
// direction's sign along the split axis, which is what frontSide encodes.
//
// At any other P the tree grows one more level under part of the core —
// the extension the paper's §5 lists as future work ("the number of
// processors must be a power of two"). For each extra rank e = Core+i
// (i < P-Core), core rank i's box is split once more along its largest
// axis: rank i keeps the low half and rank e renders the high half.
// Before the first swap stage each extra rank ships its subimage to its
// core partner (the fold); that merges the deepest split in the tree, so
// folding first preserves compositing order.
package partition

import (
	"fmt"
	"math/bits"

	"sortlast/internal/volume"
)

// Decomposition is a kd-tree partition of a root box over P ranks: a
// power-of-two core of 2^Depth ranks, and P - 2^Depth extra ranks folded
// into the first core boxes.
type Decomposition struct {
	Root  volume.Box
	Depth int          // log2 of the core rank count
	Axes  []int        // split axis per level, len == Depth
	Boxes []volume.Box // per-rank subvolume, len == P
	// foldAxes[i] is the axis of the split that gave extra rank Core+i
	// the high half of core rank i's box.
	foldAxes []int
}

// Decompose splits root into boxes for p ≥ 1 ranks. Each level halves
// every box along the axis with the largest remaining extent (ties
// broken x, y, z), so subvolumes stay as cubical as possible — the shape
// that keeps screen footprints compact. Above the largest power of two,
// the first core boxes are halved once more for the extra ranks.
func Decompose(root volume.Box, p int) (*Decomposition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: rank count %d must be positive", p)
	}
	if root.Empty() {
		return nil, fmt.Errorf("partition: empty root box %v", root)
	}
	depth := bits.Len(uint(p)) - 1 // log2 of the largest power of two <= p
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
	for i := 0; i < p-d.core(); i++ {
		b := d.Boxes[i]
		axis := b.LargestAxis()
		if b.Extent(axis) < 2 {
			return nil, fmt.Errorf("partition: core box %v too thin to fold", b)
		}
		mid := b.Lo[axis] + b.Extent(axis)/2
		lo, hi := b.Split(axis, mid)
		d.Boxes[i] = lo
		d.Boxes = append(d.Boxes, hi)
		d.foldAxes = append(d.foldAxes, axis)
	}
	return d, nil
}

// Size returns the rank count P.
func (d *Decomposition) Size() int { return len(d.Boxes) }

// core returns the power-of-two swap core's rank count.
func (d *Decomposition) core() int { return 1 << d.Depth }

// Extras returns the number of ranks folded into the core.
func (d *Decomposition) Extras() int { return d.Size() - d.core() }

// IsExtra reports whether rank r folds out before the swap stages.
func (d *Decomposition) IsExtra(r int) bool { return r >= d.core() }

// FoldPartner returns the pairing of the fold: for an extra rank, the
// core rank it sends to; for a core rank with a fold, the extra rank it
// receives from; and -1 for core ranks without a fold.
func (d *Decomposition) FoldPartner(r int) int {
	if r >= d.core() {
		return r - d.core()
	}
	if r < d.Extras() {
		return d.core() + r
	}
	return -1
}

// ExtraInFront reports whether extra rank Core+i's subimage is in front
// of core rank i's for the given view direction. The extra box is the
// high side of the fold split.
func (d *Decomposition) ExtraInFront(i int, viewDir [3]float64) bool {
	return viewDir[d.foldAxes[i]] < 0
}

// Box returns rank r's subvolume.
func (d *Decomposition) Box(r int) volume.Box { return d.Boxes[r] }

// Side returns which side (0 = low, 1 = high) of the level-l split rank r
// sits on.
func (d *Decomposition) Side(r, level int) int {
	return r >> (d.Depth - 1 - level) & 1
}

// Stages returns the number of binary-swap stages, log2 Core.
func (d *Decomposition) Stages() int { return d.Depth }

// Partner returns the rank paired with r at 1-based stage k: the rank
// differing in bit k-1 (the level depth-k split).
func (d *Decomposition) Partner(r, stage int) int {
	return r ^ (1 << (stage - 1))
}

// StageLevel maps a 1-based compositing stage to the kd level whose split
// plane it merges across.
func (d *Decomposition) StageLevel(stage int) int { return d.Depth - stage }

// stageAxis returns the split axis merged at the given 1-based stage.
func (d *Decomposition) stageAxis(stage int) int {
	return d.Axes[d.StageLevel(stage)]
}

// frontSide reports which side (0 = low coordinates, 1 = high) of the
// stage's split plane is nearer the viewer for rays travelling along
// viewDir. Rays with positive direction along the axis enter the low
// side first. A direction perpendicular to the axis never crosses the
// plane, so each ray sees only one side and either answer composites
// correctly; 0 is returned.
func (d *Decomposition) frontSide(stage int, viewDir [3]float64) int {
	if viewDir[d.stageAxis(stage)] >= 0 {
		return 0
	}
	return 1
}

// RankInFront reports whether rank r's half is in front of its stage-k
// partner's half for the given view direction.
func (d *Decomposition) RankInFront(r, stage int, viewDir [3]float64) bool {
	return d.Side(r, d.StageLevel(stage)) == d.frontSide(stage, viewDir)
}

// DepthOrder returns all ranks sorted front-to-back for the given view
// direction: the rank whose subvolume rays enter first comes first. Core
// ranks on the front side of a higher-level (coarser) split strictly
// precede ranks behind it; the core order is the lexicographic order of
// rank bits with each level's bit flipped when the high side is in
// front, and each extra rank sits next to its core partner, on the
// viewer's side of their split when in front. Sequential compositing in
// this order reproduces the parallel result.
func (d *Decomposition) DepthOrder(viewDir [3]float64) []int {
	out := make([]int, 0, d.Size())
	for i := 0; i < d.core(); i++ {
		r := 0
		for l := 0; l < d.Depth; l++ {
			bit := i >> (d.Depth - 1 - l) & 1
			if viewDir[d.Axes[l]] < 0 {
				bit ^= 1
			}
			r |= bit << (d.Depth - 1 - l)
		}
		switch e := d.FoldPartner(r); {
		case e < 0:
			out = append(out, r)
		case d.ExtraInFront(r, viewDir):
			out = append(out, e, r)
		default:
			out = append(out, r, e)
		}
	}
	return out
}
