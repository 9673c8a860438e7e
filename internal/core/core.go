// Package core implements the paper's contribution: the compositing
// phase of the sort-last-sparse pipeline. Every method is a routing
// schedule paired with a region codec (registry.go holds the table).
// Two schedules carry all seven methods: swapLoop, the binary swap of
// §3 — BS (plain), BSBR (bounding rectangle), BSLC (run-length encoding
// over an interleaved, statically load-balanced split) and BSBRC
// (bounding rectangle + run-length encoding) — and ownerMerge, one
// route round to static strip or tile owners followed by a depth-order
// merge (direct, ds, dfb). The codecs (codec.go) each own one wire
// format end to end. At a processor count that is not a power of two,
// the §5 fold is the swap schedule's first exchange; ownerMerge needs
// only the rank boxes and their depth order, so it runs at any count.
//
// All compositors are communication optimizations, not approximations:
// on the same subimages they produce bit-identical final images, because
// skipping a blank pixel is exact under the over operator.
package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/stats"
)

// Message tags used by the compositing algorithms.
const (
	tagSwap = 1 + iota
	tagFold
	tagDirect
	tagDS  = 11
	tagDFB = 12
)

// Compositor merges the per-rank subimages into a distributed final
// image. Composite runs on every rank; on return, the rank's portion of
// the final image is described by Result.Own and stored in Result.Parts.
type Compositor interface {
	Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
		img *frame.Image) (*Result, error)
}

// Result is one rank's outcome of the compositing phase.
type Result struct {
	// Full is the full-frame rectangle.
	Full frame.Rect
	// Parts holds the composited pixels: Parts[i] is the image behind
	// owned region i, in the order the gather ships Own's regions — one
	// image for rectangle and interval ownership (it may alias the
	// input subimage), one per rectangle of a rectangle set. A part has
	// pixel storage only where something was composited into it. The
	// gather is the parts' last reader.
	Parts []*frame.Image
	// Own describes which pixels of the full frame this rank owns.
	Own Ownership
	// Stats carries the counted quantities of the paper's cost model.
	Stats *stats.Rank
	// pooled marks Parts as storage the schedule allocated (ownerMerge's
	// accumulators), which GatherImage gives back to the frame pool;
	// otherwise the one part is the caller's subimage, and stays the
	// caller's to release.
	pooled bool
}

// checkWorld validates the comm/decomposition pairing both schedules
// rest on.
func checkWorld(c mp.Comm, dec *partition.Decomposition) error {
	if dec == nil {
		return fmt.Errorf("core: no decomposition")
	}
	if c.Size() != dec.Size() {
		return fmt.Errorf("core: world has %d ranks but decomposition expects %d",
			c.Size(), dec.Size())
	}
	if c.Rank() < 0 || c.Rank() >= dec.Size() {
		return fmt.Errorf("core: rank %d out of range", c.Rank())
	}
	return nil
}
