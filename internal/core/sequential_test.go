package core

import (
	"math/rand"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/partition"
	"sortlast/internal/volume"
)

// Random sparse subimages (not rendered ones — arbitrary content): every
// compositor must match the sequential depth-order reference at every
// rank count, folded and owner-routed ones included. This catches
// ordering bugs that structured scenes can mask.
func TestAllMethodsMatchSequentialOnRandomImages(t *testing.T) {
	root := volume.Box{Hi: [3]int{64, 64, 64}}
	r := rand.New(rand.NewSource(99))
	// One more row than the registry: BSLC's interleave section size moves
	// pixels between partners, never into a different image.
	type row struct {
		name        string
		granularity int
	}
	rows := []row{{"bslc", 16}}
	for _, spec := range registry {
		rows = append(rows, row{spec.Name, 0})
	}
	for _, p := range []int{2, 4, 5, 8} {
		dec, err := partition.Decompose(root, p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			viewDir := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			imgs := make([]*frame.Image, p)
			for i := range imgs {
				imgs[i] = sparseImage(int64(trial*100+i), 48, 48, 0.15+0.5*r.Float64())
			}
			ref := CompositeSequential(imgs, dec, viewDir)
			for _, m := range rows {
				comp, err := Build(m.name, m.granularity)
				if err != nil {
					t.Fatal(err)
				}
				final, _ := runImages(t, inProcess, comp, dec, viewDir, imgs)
				if d := ref.MaxAbsDiff(final, ref.Full()); d > 1e-11 {
					t.Errorf("%s (granularity %d) P=%d trial %d: differs from sequential by %g",
						m.name, m.granularity, p, trial, d)
				}
			}
		}
	}
}

func TestCompositeSequentialEmptyInput(t *testing.T) {
	if CompositeSequential(nil, nil, [3]float64{}) != nil {
		t.Error("empty input must return nil")
	}
}
