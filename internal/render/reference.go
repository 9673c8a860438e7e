package render

import (
	"math"

	"sortlast/internal/frame"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// RaycastReference is the pre-acceleration ray caster, kept verbatim as
// the determinism oracle: a serial loop over every candidate sample
// index with a per-sample box.Contains check, Volume.Sample's
// bounds-checked loads and per-sample opacity correction. The
// accelerated Raycast must produce byte-identical images — asserted by
// the identity tests in this package and by the oracle gate of every
// bench/run.sh run; DESIGN.md §11 gives the argument for why macro-cell
// skipping cannot change a bit. The pool width, Trace and Stats are
// ignored: the oracle is the mathematical definition of a frame, not a
// production path. Its bounds are fitted to a BoundingRect scan of the
// footprint, the definition Raycast's tracked rectangle must equal.
func RaycastReference(s *volume.Volume, box volume.Box, cam *Camera, tf *transfer.Func, opt Options) *frame.Image {
	img := frame.NewImage(cam.W, cam.H)
	foot := cam.Footprint(box)
	if foot.Empty() {
		return img
	}
	img.Grow(foot)

	cutoff := opt.cutoff()
	light := [3]float64{-cam.Dir[0], -cam.Dir[1], -cam.Dir[2]} // head-on

	for py := foot.Y0; py < foot.Y1; py++ {
		row := img.Row(py, foot.X0, foot.X1)
		for px := foot.X0; px < foot.X1; px++ {
			origin := cam.PlanePoint(px, py)
			tMin, tMax, ok := cam.rayBox(origin, box)
			if !ok {
				continue
			}
			// Global sample indices overlapping [tMin, tMax], widened by
			// one step of slack; exact membership is re-checked so that
			// boundary samples are claimed by exactly one box.
			kLo := int(math.Floor(tMin - 0.5))
			kHi := int(math.Ceil(tMax - 0.5))
			var acc frame.Pixel
			for k := kLo; k <= kHi; k++ {
				t := float64(k) + 0.5
				x := origin[0] + t*cam.Dir[0]
				y := origin[1] + t*cam.Dir[1]
				z := origin[2] + t*cam.Dir[2]
				if !box.Contains(x, y, z) {
					continue
				}
				v := s.Sample(x, y, z)
				op, in := tf.Classify(v)
				if op <= 0 {
					continue
				}
				if opt.Shaded {
					in *= shade(s, x, y, z, light)
				}
				// Opacity correction 1−(1−op)^Δt at the unit step Δt = 1
				// the classification is calibrated for: not simplified to
				// op, which differs in the last bit.
				a := 1 - (1 - op)
				w := (1 - acc.A) * a
				acc.I += w * in
				acc.A += w
				if acc.A >= cutoff {
					break
				}
			}
			if !acc.Blank() {
				row[px-foot.X0] = acc
			}
		}
	}
	fg, _ := img.BoundingRect(foot)
	img.Fit(fg)
	return img
}
