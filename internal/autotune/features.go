package autotune

import (
	"sortlast/internal/frame"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// Features are the cheap sparsity inputs of the selection model — the
// quantities the paper's equations depend on beyond the machine
// constants. They describe one frame of one workload at one processor
// count.
type Features struct {
	// Width and Height are the full-frame dimensions (A = Width·Height).
	Width  int `json:"width"`
	Height int `json:"height"`
	// P is the processor count (sets the number of swap stages).
	P int `json:"p"`

	// Alpha is the non-blank fraction of the full frame (A_opaque/A) —
	// what run-length compression saves.
	Alpha float64 `json:"alpha"`
	// Beta is the bounding-rectangle fraction of the full frame
	// (A_rect/A) — what bounding rectangles save.
	Beta float64 `json:"beta"`
	// Runs is the average number of non-blank runs per full-frame
	// scanline — what run-length codes cost (R_code ≈ 2·Runs·Height).
	Runs float64 `json:"runs"`

	// Skip is the renderer-side sparsity: the fraction of candidate ray
	// samples macro-cell empty-space skipping removed. The compositing
	// cost model (Eq. 1–8) does not consume it — it rides along so the
	// selector's observers and reports can correlate render-side
	// sparsity with the frame sparsity Alpha/Beta capture. Zero when
	// unobserved.
	Skip float64 `json:"skip,omitempty"`

	// Quality is the frame's quality contract ("" or "full",
	// "preview"). The Eq. 1–8 closed forms never read it; it routes the
	// selection and its measurement into the selector's per-contract
	// EWMA row, so the argmin learns each contract's cost surface
	// separately (preview frames are smaller).
	Quality string `json:"quality,omitempty"`
}

// WithTarget returns f rescaled to a target frame geometry: the
// sparsity fractions (Alpha, Beta, Runs-per-line) carry over — they are
// resolution-independent for the same scene — while the absolute
// dimensions and processor count are replaced.
func (f Features) WithTarget(width, height, p int) Features {
	f.Width, f.Height, f.P = width, height, p
	return f
}

// valid reports whether the features describe an actual frame.
func (f Features) valid() bool {
	return f.Width > 0 && f.Height > 0 && f.P > 0
}

// clamp01 bounds fractions measured from noisy counters.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ScanFeatures extracts the feature vector from an actual image by one
// full scan: bounding rectangle, non-blank count and per-scanline run
// count. This is the frame-1 pre-scan seed; subsequent frames derive
// their features from stats counters the run produced anyway.
func ScanFeatures(img *frame.Image, p int) Features {
	full := img.Full()
	f := Features{Width: full.Dx(), Height: full.Dy(), P: p}
	area := full.Area()
	if area == 0 {
		return f
	}
	br, _ := img.BoundingRect(full)
	f.Beta = clamp01(float64(br.Area()) / float64(area))
	nonBlank, runs := 0, 0
	for y := full.Y0; y < full.Y1; y++ {
		inRun := false
		for x := full.X0; x < full.X1; x++ {
			if img.At(x, y).Blank() {
				inRun = false
				continue
			}
			nonBlank++
			if !inRun {
				runs++
				inRun = true
			}
		}
	}
	f.Alpha = clamp01(float64(nonBlank) / float64(area))
	f.Runs = float64(runs) / float64(full.Dy())
	return f
}

// prescanSize is the probe resolution of Prescan. The sparsity
// fractions are nearly resolution-independent, so a coarse probe
// costs ~9k rays and still lands within a few percent of the full-
// resolution values.
const prescanSize = 96

// Prescan renders a low-resolution probe frame of the whole volume from
// the requested viewpoint and extracts features scaled to the target
// frame geometry. It is the frame-1 seed when no previous frame exists:
// one serial ray cast at prescanSize², orders of magnitude cheaper than
// the real frame.
func Prescan(vol *volume.Volume, tf *transfer.Func, width, height, p int, rotX, rotY float64) Features {
	cam := render.NewCamera(prescanSize, prescanSize, vol.Bounds(), rotX, rotY)
	// The probe renders through the production kernel (macro-cell
	// skipping included), so its skip counters measure exactly what the
	// real frame will see.
	var rs render.Stats
	img := render.Raycast(vol, vol.Bounds(), cam, tf, render.Options{Workers: 1, Stats: &rs})
	f := ScanFeatures(img, p)
	f.Skip = clamp01(rs.Snapshot().SkipFraction())
	// Runs per scanline grows with horizontal resolution for dithered
	// content but is flat for the smooth opacity fields volumes produce;
	// keep the probe's per-line count and let EWMA absorb the residual.
	return f.WithTarget(width, height, p)
}

// StatsFeatures derives the next frame's feature vector from the
// previous frame's exact per-rank counters, refining prev (the features
// the frame was predicted with). Different methods observe different
// quantities — BS sees no bounding rectangle, BS/BSBR count no runs —
// so unobservable components carry over from prev unchanged.
func StatsFeatures(prev Features, width, height, p int, method string, ranks []*stats.Rank) Features {
	f := prev.WithTarget(width, height, p)
	area := width * height
	if area == 0 || len(ranks) == 0 {
		return f
	}
	var recv, composited, codes int
	var evaluated, skipped int
	for _, r := range ranks {
		if r == nil {
			continue
		}
		recv += r.Fold.RecvPixels
		composited += r.Fold.Composited
		codes += r.Fold.Codes
		evaluated += r.Render.Samples
		skipped += r.Render.SamplesSkipped
		for i := range r.Stages {
			s := &r.Stages[i]
			recv += s.RecvPixels
			composited += s.Composited
			codes += s.Codes
		}
	}
	// The renderer's skip fraction is method-independent: observable
	// whenever the frame carried render counters, even if compositing
	// delivered nothing.
	if evaluated+skipped > 0 {
		f.Skip = clamp01(float64(skipped) / float64(evaluated+skipped))
	}
	if recv == 0 {
		return f
	}
	density := clamp01(float64(composited) / float64(recv))
	// Across a binary swap, each rank receives ~A/2 + A/4 + … = A(1-1/P)
	// pixels of dense delivery, so the whole world receives ~A(P-1).
	denseRecv := float64(area) * float64(max(p-1, 1))
	switch method {
	case "bsbr", "bsbrc", "bsbrlc", "BSBR", "BSBRC", "BSBRLC":
		// Delivered regions are bounding rectangles: their total area
		// over dense delivery estimates Beta, and the non-blank density
		// inside them recovers Alpha = density·Beta.
		f.Beta = clamp01(float64(recv) / denseRecv)
		f.Alpha = clamp01(density * f.Beta)
	case "ds", "dfb", "DS", "DFB":
		// Tile-routed delivery lands each encoded region on exactly one
		// owner, so world-wide the received rectangle area is about one
		// frame's bounding-rectangle content: Beta estimates against a
		// single frame of area, and the codes cover one frame, not P-1.
		f.Beta = clamp01(float64(recv) / float64(area))
		f.Alpha = clamp01(density * f.Beta)
		if codes > 0 {
			f.Runs = float64(codes) / (2 * float64(height))
		}
		return f
	default:
		// Delivered regions are dense halves (BS) or owned interleaves
		// (BSLC): density estimates Alpha directly; Beta is unobserved.
		f.Alpha = density
	}
	if codes > 0 {
		// Each frame's encoded regions sum to ~(P-1) frames of area, and
		// a run costs two codes (blank lead + non-blank length).
		f.Runs = float64(codes) / (2 * float64(height) * float64(max(p-1, 1)))
	}
	return f
}
