package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := XYWH(2, 3, 10, 20)
	if r.Dx() != 10 || r.Dy() != 20 || r.Area() != 200 {
		t.Fatalf("dims wrong: %v dx=%d dy=%d area=%d", r, r.Dx(), r.Dy(), r.Area())
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported empty")
	}
	if !ZR.Empty() || ZR.Area() != 0 {
		t.Error("ZR must be empty with zero area")
	}
	if (Rect{5, 5, 5, 10}).Area() != 0 {
		t.Error("zero-width rect must have zero area")
	}
}

func TestRectContains(t *testing.T) {
	r := XYWH(0, 0, 4, 4)
	if !r.Contains(0, 0) || !r.Contains(3, 3) {
		t.Error("corners inside half-open rect must be contained")
	}
	if r.Contains(4, 0) || r.Contains(0, 4) || r.Contains(-1, 0) {
		t.Error("boundary/outside points must not be contained")
	}
	if !r.ContainsRect(XYWH(1, 1, 2, 2)) {
		t.Error("inner rect must be contained")
	}
	if r.ContainsRect(XYWH(1, 1, 4, 2)) {
		t.Error("overhanging rect must not be contained")
	}
	if !r.ContainsRect(ZR) {
		t.Error("empty rect is contained in everything")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := XYWH(0, 0, 10, 10)
	b := XYWH(5, 5, 10, 10)
	if got, want := a.Intersect(b), (Rect{5, 5, 10, 10}); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Union(b), (Rect{0, 0, 15, 15}); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	c := XYWH(20, 20, 5, 5)
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersect must be empty")
	}
	if got := a.Union(ZR); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := ZR.Union(a); got != a {
		t.Errorf("empty Union a = %v, want %v", got, a)
	}
	if a.Overlaps(c) {
		t.Error("disjoint rects must not overlap")
	}
	if !a.Overlaps(b) {
		t.Error("overlapping rects must overlap")
	}
}

func TestRectSplit(t *testing.T) {
	r := XYWH(0, 0, 8, 6)
	top, bottom := r.splitH()
	if top != (Rect{0, 0, 8, 3}) || bottom != (Rect{0, 3, 8, 6}) {
		t.Errorf("splitH = %v / %v", top, bottom)
	}
	left, right := r.splitV()
	if left != (Rect{0, 0, 4, 6}) || right != (Rect{4, 0, 8, 6}) {
		t.Errorf("splitV = %v / %v", left, right)
	}
	// Odd extent: the low half is smaller.
	oTop, oBot := XYWH(0, 0, 4, 5).splitH()
	if oTop.Dy() != 2 || oBot.Dy() != 3 {
		t.Errorf("odd splitH = %v / %v", oTop, oBot)
	}
	// Degenerate split of a one-row rect.
	dTop, dBot := XYWH(0, 0, 4, 1).splitH()
	if !dTop.Empty() || dBot.Area() != 4 {
		t.Errorf("1-row splitH = %v / %v", dTop, dBot)
	}
	lo, hi := r.Split(0)
	if lo != top || hi != bottom {
		t.Error("Split(even) must split horizontally")
	}
	lo, hi = r.Split(1)
	if lo != left || hi != right {
		t.Error("Split(odd) must split vertically")
	}
}

// Splitting partitions the rectangle exactly: halves are disjoint and
// their areas sum to the whole, at every stage parity.
func TestRectSplitPartitionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000, Values: func(vals []reflectValue, r *rand.Rand) {
		vals[0] = reflectValueOf(XYWH(r.Intn(50), r.Intn(50), r.Intn(64), r.Intn(64)))
		vals[1] = reflectValueOf(r.Intn(8))
	}}
	err := quick.Check(func(r Rect, stage int) bool {
		lo, hi := r.Split(stage)
		if lo.Area()+hi.Area() != r.Area() {
			return false
		}
		if lo.Overlaps(hi) {
			return false
		}
		return r.ContainsRect(lo) && r.ContainsRect(hi)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// Intersection is the greatest lower bound, union the least upper bound.
func TestRectLatticeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000, Values: func(vals []reflectValue, r *rand.Rand) {
		for i := range vals {
			vals[i] = reflectValueOf(XYWH(r.Intn(40)-20, r.Intn(40)-20, r.Intn(30), r.Intn(30)))
		}
	}}
	err := quick.Check(func(a, b Rect) bool {
		in, un := a.Intersect(b), a.Union(b)
		if !a.ContainsRect(in) || !b.ContainsRect(in) {
			return false
		}
		if !un.ContainsRect(a.Canon()) || !un.ContainsRect(b.Canon()) {
			return false
		}
		return in.Area() <= a.Area() && in.Area() <= b.Area() &&
			un.Area() >= a.Area() && un.Area() >= b.Area()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestRectWireRoundTrip(t *testing.T) {
	rects := []Rect{
		ZR,
		XYWH(0, 0, 384, 384),
		XYWH(100, 200, 668, 568),
		{X0: -5, Y0: -7, X1: 3, Y1: 2},
		XYWH(32766, 32766, 1, 1),
	}
	for _, r := range rects {
		var buf [RectBytes]byte
		if n := PutRect(buf[:], r); n != RectBytes {
			t.Fatalf("PutRect wrote %d bytes", n)
		}
		if got := GetRect(buf[:]); got != r {
			t.Errorf("round trip %v -> %v", r, got)
		}
	}
}

func TestRectString(t *testing.T) {
	if s := XYWH(1, 2, 3, 4).String(); s == "" {
		t.Error("String must be non-empty")
	}
}
