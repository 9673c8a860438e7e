// Package sortlast is a sort-last-sparse parallel volume rendering
// system for distributed memory machines, reproducing Yang, Yu and
// Chung, "Efficient Compositing Methods for the Sort-Last-Sparse
// Parallel Volume Rendering System on Distributed Memory Multicomputers"
// (ICPP 1999).
//
// The facade runs the complete three-phase pipeline — partitioning,
// parallel ray-cast rendering, and image compositing — over a simulated
// distributed-memory machine (one goroutine per processor, message
// passing only) and reports the compositing-cost quantities the paper
// studies. The compositing methods are the paper's BS, BSBR, BSLC and
// BSBRC, the related work's direct send and direct pixel forwarding,
// and the owner-routed ds and dfb; see internal/core for the algorithms
// and DESIGN.md for the system inventory.
package sortlast

import (
	"fmt"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/render"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// Options configure one rendering run. The zero value renders the
// engine_low dataset on 8 processors with BSBRC at 384x384.
type Options struct {
	// Processors is the number of simulated ranks; any count >= 1 works
	// with every method (at non-powers-of-two the binary-swap methods
	// fold the extra ranks into a power-of-two core in their first
	// exchange). Default 8.
	Processors int
	// Method is the compositing method; see Methods for the list.
	// Default bsbrc, the paper's best.
	Method string
	// Width and Height set the image size. Default 384x384, the paper's
	// smaller configuration.
	Width, Height int
	// RotX and RotY rotate the viewpoint in degrees.
	RotX, RotY float64
	// Shaded enables gradient-based Lambertian shading.
	Shaded bool
}

func (o Options) fill() Options {
	if o.Processors == 0 {
		o.Processors = 8
	}
	if o.Method == "" {
		o.Method = "bsbrc"
	}
	if o.Width == 0 {
		o.Width = 384
	}
	if o.Height == 0 {
		o.Height = 384
	}
	return o
}

// Stats summarize a run with the paper's quantities.
type Stats struct {
	Dataset string
	Method  string
	P       int

	// Modeled compositing costs (ms) under the SP2 cost model — the
	// values comparable to the paper's tables.
	CompMS, CommMS, TotalMS float64

	// Measured wall-clock (ms) on this host: rendering and compositing
	// compute, max over ranks.
	RenderMS, MeasuredCompMS float64

	// MMaxBytes is the maximum received message size over all ranks
	// (the paper's M_max).
	MMaxBytes int
	// EmptyRects counts empty receiving bounding rectangles (§3.2).
	EmptyRects int
}

// Image is the rendered 8-bit gray image.
type Image struct {
	Width, Height int
	Gray          []uint8 // row-major, len Width*Height: (x, y) is Gray[y*Width+x]
	img           *frame.Image
}

// WritePGMFile writes the image to a PGM file.
func (im *Image) WritePGMFile(path string) error { return im.img.WritePGMFile(path) }

// Result bundles the image and the run statistics.
type Result struct {
	Image *Image
	Stats Stats
}

// Datasets lists the built-in workloads, mirroring the paper's four test
// samples.
func Datasets() []string { return harness.Datasets() }

// Methods lists the seven compositing methods in registration order:
// the paper's four (bs, bsbr, bslc, bsbrc), the related work's direct
// send (direct), then the owner-routed pair over encoded regions (ds,
// dfb). Every one runs at every Processors >= 1.
func Methods() []string {
	return core.Names()
}

// Render runs the full pipeline on a built-in dataset.
func Render(dataset string, opt Options) (*Result, error) {
	opt = opt.fill()
	cfg := harness.Config{
		Dataset: dataset,
		Width:   opt.Width, Height: opt.Height,
		P:      opt.Processors,
		Method: opt.Method,
		RotX:   opt.RotX, RotY: opt.RotY,
		RenderOpts: render.Options{Shaded: opt.Shaded},
	}
	return finish(harness.RunWithImage(cfg))
}

// RenderRaw runs the pipeline on caller-provided 8-bit volume data
// (x-fastest layout) under a transfer-function preset name (see
// Datasets) or "linear".
func RenderRaw(data []uint8, nx, ny, nz int, tfName string, opt Options) (*Result, error) {
	if len(data) != nx*ny*nz {
		return nil, fmt.Errorf("sortlast: %d samples for a %dx%dx%d volume", len(data), nx, ny, nz)
	}
	vol := volume.New(nx, ny, nz)
	copy(vol.Data, data)
	var tf *transfer.Func
	if tfName == "linear" {
		tf = transfer.Ramp("linear", 0, 255, 0.3)
	} else {
		f, err := transfer.Preset(tfName)
		if err != nil {
			return nil, err
		}
		tf = f
	}
	opt = opt.fill()
	cfg := harness.Config{
		Dataset: tfName,
		Volume:  vol,
		TF:      tf,
		Width:   opt.Width, Height: opt.Height,
		P:      opt.Processors,
		Method: opt.Method,
		RotX:   opt.RotX, RotY: opt.RotY,
		RenderOpts: render.Options{Shaded: opt.Shaded},
	}
	return finish(harness.RunWithImage(cfg))
}

func finish(row *harness.Row, img *frame.Image, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	w, h := img.Full().Dx(), img.Full().Dy()
	out := &Image{Width: w, Height: h, Gray: img.AppendGray(nil), img: img}
	return &Result{
		Image: out,
		Stats: Stats{
			Dataset: row.Dataset, Method: row.Method, P: row.P,
			CompMS: row.CompMS, CommMS: row.CommMS, TotalMS: row.TotalMS,
			RenderMS: row.RenderMS, MeasuredCompMS: row.MeasuredCompMS,
			MMaxBytes: row.MMax, EmptyRects: row.EmptyRects,
		},
	}, nil
}
