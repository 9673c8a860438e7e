package core

import (
	"sortlast/internal/frame"
	"sortlast/internal/partition"
)

// CompositeSequential composites the per-rank subimages on a single
// processor by walking the decomposition's depth order front-to-back —
// the reference every parallel compositor must match. It is used by the
// validation mode of the harness and by tests; it does not touch the
// input images.
func CompositeSequential(imgs []*frame.Image, dec *partition.Decomposition,
	viewDir [3]float64) *frame.Image {
	if len(imgs) == 0 {
		return nil
	}
	full := imgs[0].Full()
	out := frame.NewImage(full.Dx(), full.Dy())
	for _, r := range dec.DepthOrder(viewDir) {
		img := imgs[r]
		b := img.Bounds()
		if b.Empty() {
			continue
		}
		// out holds everything nearer the viewer, so the next rank's
		// pixels go behind it.
		out.CompositeImage(img, b, false)
	}
	return out
}

// CompositeSequentialLayout is CompositeSequential under the name the
// benchmark module (bench/) still calls; it leaves once bench/ calls
// CompositeSequential.
func CompositeSequentialLayout(imgs []*frame.Image, dec *partition.Decomposition,
	viewDir [3]float64) *frame.Image {
	return CompositeSequential(imgs, dec, viewDir)
}
