package render

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sortlast/internal/frame"
	"sortlast/internal/trace"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// Options tune the ray caster.
type Options struct {
	// EarlyTermination stops a ray once accumulated opacity exceeds this
	// value. Zero means the default 0.999; negative disables termination
	// (needed when an exact match with segment-composited rendering is
	// required).
	EarlyTermination float64
	// Shaded enables Lambertian shading from the scalar gradient, lit
	// head-on (from the viewer) over an ambient floor of 0.3.
	Shaded bool
	// Trace, when set, records a "raycast" span covering the tile loop
	// (with a nested "grid-build" span for kernel + macro-grid setup)
	// on this rank's track. nil (the default) records nothing.
	Trace *trace.Rank
	// Stats, when set, accumulates ray/sample/macro-cell counters —
	// including how much work empty-space skipping removed — into the
	// given collector. Shared collectors are safe (atomics); nil (the
	// default) skips collection.
	Stats *Stats

	// workers is the tile pool's width. Zero means GOMAXPROCS, the
	// process's one CPU budget, which every caller runs with; only this
	// package's identity tests set it, to check that any width gives the
	// same bits.
	workers int
}

func (o Options) cutoff() float64 {
	switch {
	case o.EarlyTermination == 0:
		return 0.999
	case o.EarlyTermination < 0:
		return math.Inf(1)
	default:
		return o.EarlyTermination
	}
}

// Tile geometry of the work queue. A tile row is 64 pixels = 1 KiB of
// pixel storage = 16 cache lines, so neighboring tiles contend for at
// most one line per row; 4 rows per tile keeps a tile coarse enough
// that the atomic claim is noise yet fine enough that a footprint with
// very few rows still splits across workers (the scanline queue this
// replaced went serial whenever the footprint was shorter than the
// worker count).
const (
	tileW = 64
	tileH = 4
)

// Raycast renders the portion of the scene inside box, as seen by cam,
// into a sparse subimage. Samples are one voxel apart and globally
// aligned: sample k of any ray sits at parameter k+0.5 measured from the
// camera's image plane, and a sample is accumulated exactly when its
// world position lies inside the half-open box. Disjoint boxes therefore
// partition every ray's samples, and over-compositing the per-box images
// front-to-back reproduces the full-volume rendering.
//
// The implementation is the accelerated kernel — rays clipped to the
// occupied hull of the box, macro-cell empty-space skipping over a
// min/max grid, a contiguous in-box sample interval in place of
// per-sample containment checks, a sample loop that classifies and
// composites every sample without branching on its value, and a volume
// border test made once per macro cell instead of once per sample — but
// its output is bit-identical to RaycastReference for every method,
// shading and worker-count combination (DESIGN.md §11 explains why; the
// identity tests enforce it). The image's storage is the box's
// footprint; its bounds are the bounding rectangle of the pixels the
// rays wrote (empty, with the storage released, when none did).
func Raycast(vol *volume.Volume, box volume.Box, cam *Camera, tf *transfer.Func, opt Options) *frame.Image {
	img := frame.NewImage(cam.W, cam.H)
	foot := cam.Footprint(box)
	if foot.Empty() {
		return img
	}
	img.GrowExact(foot)
	tm := opt.Trace.Begin()
	defer opt.Trace.End(tm, trace.SpanRaycast, "")

	// Kernel setup includes the once-per-volume macro-cell grid build
	// (amortized by the cache on the volume); it gets its own span
	// because the first frame of a dataset pays it.
	gm := opt.Trace.Begin()
	k := newKernel(vol, box, cam, tf, opt)
	opt.Trace.End(gm, trace.SpanGridBuild, "")

	// Rays outside the clip's footprint meet only provably empty cells:
	// their pixels stay blank without being cast.
	if k.clip.Empty() {
		img.Fit(frame.ZR)
		return img
	}
	foot = cam.Footprint(k.clip).Intersect(foot)

	tilesX := (foot.Dx() + tileW - 1) / tileW
	tilesY := (foot.Dy() + tileH - 1) / tileH
	tiles := tilesX * tilesY

	// renderTile widens fg over every row's first and last written
	// pixel.
	renderTile := func(idx int, st *StatsSnapshot, fg *frame.Rect) {
		x0 := foot.X0 + (idx%tilesX)*tileW
		y0 := foot.Y0 + (idx/tilesX)*tileH
		x1 := min(x0+tileW, foot.X1)
		y1 := min(y0+tileH, foot.Y1)
		for py := y0; py < y1; py++ {
			row := img.Row(py, x0, x1)
			lo, hi := x1, x0
			for px := x0; px < x1; px++ {
				if acc := k.castRay(px, py, st); !acc.Blank() {
					row[px-x0] = acc
					lo, hi = min(lo, px), px+1
				}
			}
			*fg = fg.Union(frame.Rect{X0: lo, Y0: py, X1: hi, Y1: py + 1})
		}
	}

	workers := opt.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, tiles)
	if workers <= 1 {
		var st StatsSnapshot
		var fg frame.Rect
		for idx := 0; idx < tiles; idx++ {
			renderTile(idx, &st, &fg)
		}
		opt.Stats.flush(&st)
		img.Fit(fg)
		return img
	}
	// Tiles are claimed off one atomic counter; a worker's stats and
	// foreground rectangle are its own until it flushes them once at
	// exit (the counter, mutex and merged rectangle are one allocation).
	// Pixels depend only on the ray through them, so scheduling cannot
	// change the output.
	var shared struct {
		next atomic.Int64
		mu   sync.Mutex
		fg   frame.Rect
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st StatsSnapshot
			var fg frame.Rect
			for {
				idx := int(shared.next.Add(1)) - 1
				if idx >= tiles {
					opt.Stats.flush(&st)
					shared.mu.Lock()
					shared.fg = shared.fg.Union(fg)
					shared.mu.Unlock()
					return
				}
				renderTile(idx, &st, &fg)
			}
		}()
	}
	wg.Wait()
	img.Fit(shared.fg)
	return img
}

// ambient is the shading model's ambient floor: a surface facing away
// from the light keeps this share of its intensity.
const ambient = 0.3

// shade returns a Lambertian brightness factor from the local gradient,
// lit from the viewer (light is the direction toward the light, -Dir).
func shade(s *volume.Volume, x, y, z float64, light [3]float64) float64 {
	g := s.Gradient(x, y, z)
	n := math.Sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])
	if n < 1e-9 {
		return 1 // flat region: unshaded
	}
	// The gradient points toward increasing density; the surface normal
	// faces outward (toward decreasing density).
	d := -(g[0]*light[0] + g[1]*light[1] + g[2]*light[2]) / n
	if d < 0 {
		d = 0
	}
	return ambient + (1-ambient)*d
}
