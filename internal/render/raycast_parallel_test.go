package render

import (
	"testing"

	"sortlast/internal/partition"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// TestRaycastParallelMatchesSerial renders with various worker counts and
// demands bit-identical output to the serial path: scanlines are
// independent, so scheduling must not influence a single pixel value.
func TestRaycastParallelMatchesSerial(t *testing.T) {
	vols := map[string]*volume.Volume{
		"engine": volume.EngineBlock(40, 40, 18),
		"head":   volume.HeadPhantom(40, 40, 20),
	}
	tfs := map[string]*transfer.Func{
		"engine": transfer.EngineHigh(),
		"head":   transfer.Head(),
	}
	for name, v := range vols {
		for _, shaded := range []bool{false, true} {
			cam := NewCamera(64, 64, v.Bounds(), 20, 35)
			serial := Raycast(v, v.Bounds(), cam, tfs[name], Options{workers: 1, Shaded: shaded})
			// 0 = GOMAXPROCS; 97 exceeds the row count and must be capped.
			for _, w := range []int{0, 2, 4, 97} {
				par := Raycast(v, v.Bounds(), cam, tfs[name], Options{workers: w, Shaded: shaded})
				if par.Bounds() != serial.Bounds() {
					t.Fatalf("%s shaded=%v workers=%d: bounds %v, want %v",
						name, shaded, w, par.Bounds(), serial.Bounds())
				}
				for y := 0; y < 64; y++ {
					for x := 0; x < 64; x++ {
						if par.At(x, y) != serial.At(x, y) {
							t.Fatalf("%s shaded=%v workers=%d: pixel (%d,%d) = %v, want %v",
								name, shaded, w, x, y, par.At(x, y), serial.At(x, y))
						}
					}
				}
			}
		}
	}
}

// TestRaycastParallelSubvolumes runs the per-rank configuration — the
// shared volume, one image per rank's box — under parallel workers,
// matching how the harness invokes the renderer.
func TestRaycastParallelSubvolumes(t *testing.T) {
	v := volume.EngineBlock(40, 40, 18)
	tf := transfer.EngineLow()
	cam := NewCamera(64, 64, v.Bounds(), 10, 25)
	dec, err := partition.Decompose(v.Bounds(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		serial := Raycast(v, dec.Box(r), cam, tf, Options{workers: 1})
		par := Raycast(v, dec.Box(r), cam, tf, Options{workers: 4})
		if par.Bounds() != serial.Bounds() {
			t.Fatalf("rank %d: bounds %v, want %v", r, par.Bounds(), serial.Bounds())
		}
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				if par.At(x, y) != serial.At(x, y) {
					t.Fatalf("rank %d: pixel (%d,%d) differs", r, x, y)
				}
			}
		}
	}
}
