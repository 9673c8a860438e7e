package core

import (
	"math/rand"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/volume"
)

// Random sparse subimages (not rendered ones — arbitrary content): every
// compositor must match the sequential depth-order reference at every
// rank count, folded and owner-routed ones included. This catches
// ordering bugs that structured scenes can mask.
func TestAllMethodsMatchSequentialOnRandomImages(t *testing.T) {
	root := volume.Box{Hi: [3]int{64, 64, 64}}
	r := rand.New(rand.NewSource(99))
	for _, p := range []int{2, 4, 5, 8} {
		for trial := 0; trial < 3; trial++ {
			viewDir := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			imgs := make([]*frame.Image, p)
			for i := range imgs {
				imgs[i] = sparseImage(int64(trial*100+i), 48, 48, 0.15+0.5*r.Float64())
			}
			for _, spec := range Specs() {
				comp, dec, lay := methodWorld(t, spec.Name, root, p, 0)
				ref := CompositeSequentialLayout(imgs, lay, viewDir)
				final, _ := runImages(t, inProcess, comp, dec, viewDir, imgs)
				if d := ref.MaxAbsDiff(final, ref.Full()); d > 1e-11 {
					t.Errorf("%s P=%d trial %d: differs from sequential by %g",
						spec.Name, p, trial, d)
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
