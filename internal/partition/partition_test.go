package partition

import (
	"math/rand"
	"slices"
	"testing"

	"sortlast/internal/volume"
)

func root256() volume.Box {
	return volume.Box{Hi: [3]int{256, 256, 110}}
}

func TestDecomposeRejectsBadInput(t *testing.T) {
	if _, err := Decompose(root256(), 3); err != nil {
		t.Errorf("a rank count that is not a power of two folds: %v", err)
	}
	if _, err := Decompose(root256(), 0); err == nil {
		t.Error("zero ranks must be rejected")
	}
	if _, err := Decompose(root256(), -4); err == nil {
		t.Error("negative ranks must be rejected")
	}
	if _, err := Decompose(volume.Box{}, 2); err == nil {
		t.Error("empty root must be rejected")
	}
	if _, err := Decompose(volume.Box{Hi: [3]int{1, 1, 1}}, 8); err == nil {
		t.Error("unsplittable box must be rejected")
	}
}

// The decomposition is exact: boxes are pairwise disjoint and cover the
// root voxel-for-voxel, for every power-of-two rank count.
func TestDecomposePartitionsExactly(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		d, err := Decompose(root256(), p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d.Size() != p || len(d.Boxes) != p {
			t.Fatalf("P=%d: size %d boxes %d", p, d.Size(), len(d.Boxes))
		}
		total := 0
		for _, b := range d.Boxes {
			total += b.Volume()
		}
		if total != root256().Volume() {
			t.Errorf("P=%d: boxes cover %d voxels, root has %d", p, total, root256().Volume())
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if !d.Boxes[i].Intersect(d.Boxes[j]).Empty() {
					t.Errorf("P=%d: boxes %d and %d overlap", p, i, j)
				}
			}
		}
	}
}

// Every continuous point belongs to exactly one box (half-openness).
func TestDecomposePointMembershipUnique(t *testing.T) {
	d, err := Decompose(root256(), 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		x := r.Float64() * 256
		y := r.Float64() * 256
		z := r.Float64() * 110
		owners := 0
		for _, b := range d.Boxes {
			if b.Contains(x, y, z) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("point (%v,%v,%v) has %d owners", x, y, z, owners)
		}
	}
}

func TestSideMatchesBoxPosition(t *testing.T) {
	d, err := Decompose(root256(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		for l := 0; l < d.Depth; l++ {
			axis := d.Axes[l]
			side := d.Side(r, l)
			// Find the sibling rank across level l and compare positions.
			sib := r ^ (1 << (d.Depth - 1 - l))
			rb, sb := d.Box(r), d.Box(sib)
			if side == 0 && rb.Lo[axis] > sb.Lo[axis] {
				t.Errorf("rank %d level %d: side 0 but box %v not low of %v on axis %d",
					r, l, rb, sb, axis)
			}
			if side == 1 && rb.Lo[axis] < sb.Lo[axis] {
				t.Errorf("rank %d level %d: side 1 but box %v not high of %v on axis %d",
					r, l, rb, sb, axis)
			}
		}
	}
}

func TestPartnerSymmetricAndStageMapping(t *testing.T) {
	d, err := Decompose(root256(), 32)
	if err != nil {
		t.Fatal(err)
	}
	for stage := 1; stage <= d.Stages(); stage++ {
		for r := 0; r < d.Size(); r++ {
			p := d.Partner(r, stage)
			if p == r || d.Partner(p, stage) != r {
				t.Fatalf("partner not a pairing: rank %d stage %d -> %d", r, stage, p)
			}
			// Partners at stage k differ exactly at the stage's level.
			lvl := d.StageLevel(stage)
			if d.Side(r, lvl) == d.Side(p, lvl) {
				t.Fatalf("partners on same side of level %d", lvl)
			}
			for l := 0; l < d.Depth; l++ {
				if l != lvl && d.Side(r, l) != d.Side(p, l) {
					t.Fatalf("partners differ at unrelated level %d", l)
				}
			}
		}
	}
	// Stage 1 merges the deepest level.
	if d.StageLevel(1) != d.Depth-1 || d.StageLevel(d.Stages()) != 0 {
		t.Error("stage-to-level mapping reversed")
	}
}

func TestFrontSideFollowsViewDirection(t *testing.T) {
	d, err := Decompose(root256(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for stage := 1; stage <= 2; stage++ {
		axis := d.stageAxis(stage)
		var pos, neg [3]float64
		pos[axis] = 1
		neg[axis] = -1
		if d.frontSide(stage, pos) != 0 {
			t.Errorf("stage %d: rays along +axis must see the low side first", stage)
		}
		if d.frontSide(stage, neg) != 1 {
			t.Errorf("stage %d: rays along -axis must see the high side first", stage)
		}
	}
}

// RankInFront is antisymmetric between partners: exactly one of a pair is
// in front for any view direction.
func TestRankInFrontAntisymmetric(t *testing.T) {
	d, err := Decompose(root256(), 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		dir := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		for stage := 1; stage <= d.Stages(); stage++ {
			for rank := 0; rank < d.Size(); rank++ {
				p := d.Partner(rank, stage)
				if d.RankInFront(rank, stage, dir) == d.RankInFront(p, stage, dir) {
					t.Fatalf("both or neither of %d,%d in front at stage %d dir %v",
						rank, p, stage, dir)
				}
			}
		}
	}
}

// DepthOrder really is front-to-back: two ranks are separated by the
// split plane of the first kd level where their paths diverge, and the
// rank on the viewer's side of that plane must come first. (Global
// monotonicity of box coordinates is NOT required — ranks whose rays can
// never overlap may appear in any relative order.)
func TestDepthOrderSeparatingPlaneInvariant(t *testing.T) {
	d, err := Decompose(root256(), 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	dirs := [][3]float64{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	for trial := 0; trial < 50; trial++ {
		dirs = append(dirs, [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()})
	}
	for _, dir := range dirs {
		order := d.DepthOrder(dir)
		seen := map[int]bool{}
		for _, x := range order {
			seen[x] = true
		}
		if len(seen) != 8 {
			t.Fatalf("order %v is not a permutation", order)
		}
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				a, b := order[i], order[j]
				// First level where the paths diverge.
				lvl := -1
				for l := 0; l < d.Depth; l++ {
					if d.Side(a, l) != d.Side(b, l) {
						lvl = l
						break
					}
				}
				if lvl < 0 {
					t.Fatalf("duplicate ranks %d in order", a)
				}
				axis := d.Axes[lvl]
				if dir[axis] == 0 {
					continue // plane parallel to rays: order irrelevant
				}
				front := 0
				if dir[axis] < 0 {
					front = 1
				}
				if d.Side(a, lvl) != front {
					t.Fatalf("dir %v: rank %d precedes %d but is behind the level-%d plane",
						dir, a, b, lvl)
				}
			}
		}
	}
}

// bitFlipOrder is the plain power-of-two depth order: position i holds
// rank i with each level's bit flipped where the view runs toward the
// low side of that level's split.
func bitFlipOrder(d *Decomposition, dir [3]float64) []int {
	flip := 0
	for l, axis := range d.Axes {
		if dir[axis] < 0 {
			flip |= 1 << (d.Depth - 1 - l)
		}
	}
	out := make([]int, 1<<d.Depth)
	for i := range out {
		out[i] = i ^ flip
	}
	return out
}

// At a power of two nothing folds: no rank is extra, no core rank has a
// fold partner, and the depth order is the plain bit-flip order.
func TestPlanFoldPowerOfTwoDegenerates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for p := 1; p <= 64; p *= 2 {
		d, err := Decompose(root256(), p)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != p || d.core() != p || d.Extras() != 0 {
			t.Fatalf("P=%d: size=%d core=%d extras=%d", p, d.Size(), d.core(), d.Extras())
		}
		for rank := 0; rank < p; rank++ {
			if d.IsExtra(rank) {
				t.Errorf("P=%d: rank %d may not be extra", p, rank)
			}
			if d.FoldPartner(rank) != -1 {
				t.Errorf("P=%d: unfolded core rank %d must have no partner", p, rank)
			}
		}
		for trial := 0; trial < 20; trial++ {
			dir := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			if got, want := d.DepthOrder(dir), bitFlipOrder(d, dir); !slices.Equal(got, want) {
				t.Fatalf("P=%d dir %v: depth order %v, want the bit-flip order %v", p, dir, got, want)
			}
		}
	}
}

// Every P from 1 to 64 partitions the root exactly. Core ranks without a
// fold keep their box of the power-of-two core, a folded core rank and
// its extra rank split theirs in two, and fold partners are mutual.
func TestPlanFoldArbitraryP(t *testing.T) {
	for p := 1; p <= 64; p++ {
		d, err := Decompose(root256(), p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d.Size() != p || len(d.Boxes) != p {
			t.Fatalf("P=%d: size %d boxes %d", p, d.Size(), len(d.Boxes))
		}
		if d.core() > p || 2*d.core() <= p || d.Extras() != p-d.core() {
			t.Fatalf("P=%d: core %d, extras %d", p, d.core(), d.Extras())
		}
		total := 0
		for r := 0; r < p; r++ {
			total += d.Box(r).Volume()
		}
		if total != root256().Volume() {
			t.Errorf("P=%d: covers %d voxels, want %d", p, total, root256().Volume())
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				if !d.Box(i).Intersect(d.Box(j)).Empty() {
					t.Errorf("P=%d: boxes %d,%d overlap", p, i, j)
				}
			}
		}
		plain, err := Decompose(root256(), d.core())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < d.core(); r++ {
			cb := plain.Box(r)
			e := d.FoldPartner(r)
			if e < 0 {
				if d.Box(r) != cb {
					t.Errorf("P=%d: unfolded rank %d renders %v, the core box is %v", p, r, d.Box(r), cb)
				}
				continue
			}
			lo, hi := d.Box(r), d.Box(e)
			if lo.Intersect(cb) != lo || hi.Intersect(cb) != hi || lo.Volume()+hi.Volume() != cb.Volume() {
				t.Errorf("P=%d: ranks %d and %d split %v into %v and %v", p, r, e, cb, lo, hi)
			}
		}
		// Fold partners are mutual.
		for e := d.core(); e < p; e++ {
			if !d.IsExtra(e) {
				t.Errorf("P=%d: rank %d is past the core but not extra", p, e)
			}
			c := d.FoldPartner(e)
			if c < 0 || c >= d.core() || d.FoldPartner(c) != e {
				t.Errorf("P=%d: fold pairing broken at extra %d", p, e)
			}
		}
	}
}

// At every P from 1 to 64 the depth order is a permutation of the ranks;
// its core ranks keep the plain bit-flip order, and each extra rank sits
// next to its fold partner, first when its half is in front.
func TestFoldDepthOrderIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for p := 1; p <= 64; p++ {
		d, err := Decompose(root256(), p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			dir := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			order := d.DepthOrder(dir)
			if len(order) != p {
				t.Fatalf("P=%d: order length %d", p, len(order))
			}
			seen := map[int]bool{}
			for _, x := range order {
				seen[x] = true
			}
			if len(seen) != p {
				t.Fatalf("P=%d: order %v not a permutation", p, order)
			}
			core := slices.DeleteFunc(slices.Clone(order), d.IsExtra)
			if want := bitFlipOrder(d, dir); !slices.Equal(core, want) {
				t.Fatalf("P=%d: core ranks in order %v, want the bit-flip order %v", p, core, want)
			}
			// Each extra rank must be adjacent to its fold partner, on the
			// viewer's side when its half is in front.
			posOf := make(map[int]int, p)
			for i, x := range order {
				posOf[x] = i
			}
			for e := d.core(); e < p; e++ {
				c := d.FoldPartner(e)
				want := 1
				if d.ExtraInFront(c, dir) {
					want = -1
				}
				if posOf[e]-posOf[c] != want {
					t.Fatalf("P=%d: extra %d not on the right side of partner %d in %v", p, e, c, order)
				}
			}
		}
	}
}

func TestPlanFoldRejectsBadInput(t *testing.T) {
	if _, err := Decompose(root256(), 0); err == nil {
		t.Error("zero ranks must be rejected")
	}
	if _, err := Decompose(volume.Box{Hi: [3]int{1, 1, 1}}, 3); err == nil {
		t.Error("a core too thin to split must be rejected")
	}
	if _, err := Decompose(volume.Box{Hi: [3]int{2, 1, 1}}, 3); err == nil {
		t.Error("a core box too thin to fold must be rejected")
	}
}
