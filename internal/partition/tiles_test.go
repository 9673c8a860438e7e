package partition

import (
	"math/rand"
	"testing"

	"sortlast/internal/frame"
)

// The tile grid must partition the frame exactly: every pixel in exactly
// one tile.
func TestTilingPartitionsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		full := frame.XYWH(rng.Intn(10), rng.Intn(10), 1+rng.Intn(90), 1+rng.Intn(90))
		tile := 1 + rng.Intn(40)
		til, err := NewTiling(full, tile)
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
		}
		if area != full.Area() {
			t.Fatalf("tiles cover %d of %d (%v tile=%d)", area, full.Area(), full, tile)
		}
	}
}

func TestTilingRejectsBadInputs(t *testing.T) {
	full := frame.XYWH(0, 0, 10, 10)
	if _, err := NewTiling(full, 0); err == nil {
		t.Error("zero tile accepted")
	}
	if _, err := NewTiling(frame.Rect{}, 8); err == nil {
		t.Error("empty frame accepted")
	}
}
