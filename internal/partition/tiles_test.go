package partition

import (
	"math/rand"
	"testing"

	"sortlast/internal/frame"
)

// The tile grid must partition the frame exactly: every pixel in exactly
// one tile, every tile owned by exactly one in-range rank.
func TestTilingPartitionsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		full := frame.XYWH(rng.Intn(10), rng.Intn(10), 1+rng.Intn(90), 1+rng.Intn(90))
		tile := 1 + rng.Intn(40)
		p := 1 + rng.Intn(12)
		til, err := NewTiling(full, tile, p)
		if err != nil {
			t.Fatal(err)
		}
		area := 0
		for i := 0; i < til.NumTiles(); i++ {
			r := til.Rect(i)
			if r.Empty() {
				t.Fatalf("tile %d of %v/%d empty", i, full, tile)
			}
			area += r.Area()
			if o := til.Owner(i); o < 0 || o >= p {
				t.Fatalf("tile %d owner %d out of range %d", i, o, p)
			}
		}
		if area != full.Area() {
			t.Fatalf("tiles cover %d of %d (%v tile=%d)", area, full.Area(), full, tile)
		}
		// OwnedBy lists exactly the tiles Owner assigns, disjointly.
		seen := map[int]int{}
		for r := 0; r < p; r++ {
			for _, i := range til.OwnedBy(r) {
				if til.Owner(i) != r {
					t.Fatalf("OwnedBy(%d) lists tile %d owned by %d", r, i, til.Owner(i))
				}
				seen[i]++
			}
		}
		if len(seen) != til.NumTiles() {
			t.Fatalf("OwnedBy covers %d of %d tiles", len(seen), til.NumTiles())
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("tile %d listed %d times", i, n)
			}
		}
	}
}

func TestTilingOverlapping(t *testing.T) {
	full := frame.XYWH(0, 0, 100, 60)
	til, err := NewTiling(full, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	probe := frame.XYWH(15, 15, 20, 3) // crosses tile boundaries at x=16,32 and y=16
	var hit []int
	til.Overlapping(probe, func(i int) { hit = append(hit, i) })
	want := map[int]bool{}
	for i := 0; i < til.NumTiles(); i++ {
		if !til.Rect(i).Intersect(probe).Empty() {
			want[i] = true
		}
	}
	if len(hit) != len(want) {
		t.Fatalf("Overlapping hit %v, want %d tiles", hit, len(want))
	}
	for _, i := range hit {
		if !want[i] {
			t.Fatalf("Overlapping hit non-intersecting tile %d", i)
		}
	}
	// A probe outside the frame hits nothing.
	til.Overlapping(frame.XYWH(200, 200, 5, 5), func(i int) {
		t.Fatalf("tile %d hit by out-of-frame probe", i)
	})
}

func TestTilingRejectsBadInputs(t *testing.T) {
	full := frame.XYWH(0, 0, 10, 10)
	if _, err := NewTiling(full, 0, 2); err == nil {
		t.Error("zero tile accepted")
	}
	if _, err := NewTiling(full, 8, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewTiling(frame.Rect{}, 8, 2); err == nil {
		t.Error("empty frame accepted")
	}
}

// More ranks than tiles is valid: trailing ranks own nothing.
func TestTilingMoreRanksThanTiles(t *testing.T) {
	til, err := NewTiling(frame.XYWH(0, 0, 8, 8), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if til.NumTiles() != 1 {
		t.Fatalf("tiles = %d", til.NumTiles())
	}
	if got := til.OwnedBy(0); len(got) != 1 {
		t.Fatalf("rank 0 owns %v", got)
	}
	for r := 1; r < 5; r++ {
		if got := til.OwnedBy(r); len(got) != 0 {
			t.Fatalf("rank %d owns %v, want nothing", r, got)
		}
	}
}
