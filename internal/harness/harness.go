// Package harness drives the full sort-last pipeline for one experiment
// configuration — partitioning, parallel rendering, compositing, final
// gather — and reduces the per-rank counters to the row format of the
// paper's tables: modeled T_comp / T_comm / T_total (ms), the maximum
// received message size M_max, and the empty-rectangle counts of §3.2.
package harness

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// Config describes one experiment: dataset x method x P x image size x
// viewpoint.
type Config struct {
	// Dataset is one of the paper's four workloads: engine_low,
	// engine_high, head, cube. Volume/TF override it when set.
	Dataset string
	Volume  *volume.Volume
	TF      *transfer.Func

	Width, Height int
	P             int
	// Method is a core registry name: bs, bsbr, bslc, bsbrc, direct, ds
	// or dfb. Every method runs at every P ≥ 1.
	Method string

	// RotX and RotY rotate the viewpoint (degrees), the paper's §3.2
	// rotation study.
	RotX, RotY float64

	// RenderOpts tune the ray caster (zero value: defaults).
	RenderOpts render.Options

	// Validate gathers the pristine subimages at rank 0 after
	// compositing and compares the parallel result against the
	// sequential depth-order reference, recording the difference in
	// Row.ValidateDiff and failing the run if it exceeds 1e-9.
	Validate bool

	// Trace, when set, records wall-clock spans for every phase of the
	// run — render, per-stage encode/composite, comm waits, gather — on
	// the recorder's per-rank tracks. nil (the default) disables tracing
	// at zero cost.
	Trace *trace.Recorder

	// Options for the message-passing world (zero value: defaults).
	WorldOpts mp.Options
}

// Row is one line of a paper-style table.
type Row struct {
	Dataset       string
	Method        string
	P             int
	Width, Height int

	CompMS  float64 // modeled T_comp, max over ranks
	CommMS  float64 // modeled T_comm, max over ranks
	TotalMS float64 // CompMS + CommMS (the paper's per-processor sum)

	// MakespanMS is the schedule-aware completion time: stage-k
	// compositing waits for the partner's message, so slow partners
	// stall pairs. Only computed for the binary-swap schedule (the
	// paper's four methods, folded or not); 0 for direct, ds and dfb,
	// whose schedule is not that graph.
	MakespanMS float64

	MeasuredCompMS float64 // measured compositing compute, max over ranks
	RenderMS       float64 // measured rendering wall, max over ranks

	// RenderImbalance is the busiest rank's ray samples ÷ the mean over
	// ranks — an exact count, 1 when the partition is balanced for this
	// view, 0 when no rank sampled.
	RenderImbalance float64

	MMax       int // maximum received message size (bytes)
	EmptyRects int // empty receiving bounding rectangles, all ranks
	NonBlank   int // non-blank pixels in the final image

	// ValidateDiff is the max per-channel difference from the sequential
	// reference when Config.Validate is set (else 0).
	ValidateDiff float64
}

// datasetCache avoids regenerating the procedural volumes for every
// experiment; they are immutable once built. Each entry is built once:
// concurrent first callers wait for one build instead of each making
// their own.
var datasetCache sync.Map // map[string]*cachedVolume

type cachedVolume struct {
	once sync.Once
	v    *volume.Volume
	err  error
}

// datasets is the one table of built-in workloads: the paper's four
// names in table order, each with the procedural volume it renders (the
// two engine workloads classify the same volume differently).
var datasets = []struct{ name, base string }{
	{"engine_low", volume.DatasetEngine},
	{"engine_high", volume.DatasetEngine},
	{"head", volume.DatasetHead},
	{"cube", volume.DatasetCube},
}

// Datasets lists the built-in workload names accepted by Config.Dataset.
func Datasets() []string {
	names := make([]string, len(datasets))
	for i, d := range datasets {
		names[i] = d.name
	}
	return names
}

// datasetBase returns which procedural volume the named workload renders.
func datasetBase(name string) (string, bool) {
	for _, d := range datasets {
		if d.name == name {
			return d.base, true
		}
	}
	return "", false
}

// KnownDataset reports whether name is a built-in workload.
func KnownDataset(name string) bool {
	_, ok := datasetBase(name)
	return ok
}

func datasetVolume(name string) (*volume.Volume, error) {
	base, ok := datasetBase(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown dataset %q", name)
	}
	e, ok := datasetCache.Load(base)
	if !ok {
		e, _ = datasetCache.LoadOrStore(base, new(cachedVolume))
	}
	c := e.(*cachedVolume)
	c.once.Do(func() { c.v, c.err = volume.Generate(base) })
	return c.v, c.err
}

// Dataset resolves one of the paper's workload names to its (cached)
// volume and transfer function.
func Dataset(name string) (*volume.Volume, *transfer.Func, error) {
	v, err := datasetVolume(name)
	if err != nil {
		return nil, nil, err
	}
	tf, err := transfer.Preset(name)
	if err != nil {
		return nil, nil, err
	}
	return v, tf, nil
}

func (cfg *Config) resolve() (*volume.Volume, *transfer.Func, error) {
	vol, tf := cfg.Volume, cfg.TF
	if vol == nil {
		v, err := datasetVolume(cfg.Dataset)
		if err != nil {
			return nil, nil, err
		}
		vol = v
	}
	if tf == nil {
		f, err := transfer.Preset(cfg.Dataset)
		if err != nil {
			return nil, nil, err
		}
		tf = f
	}
	return vol, tf, nil
}

// RunWithImage executes the experiment, the one-shot run: it returns the
// table row and the final image gathered at rank 0.
func RunWithImage(cfg Config) (*Row, *frame.Image, error) {
	row, img, _, err := run(cfg)
	return row, img, err
}

// run is RunWithImage plus the per-rank compositing counters.
func run(cfg Config) (*Row, *frame.Image, []*stats.Rank, error) {
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, nil, nil, err
	}

	rankStats := make([]*stats.Rank, cfg.P)
	renderStats := make([]render.Stats, cfg.P)
	var tally Tally
	var final *frame.Image
	var validateDiff float64

	err = mp.Run(cfg.P, cfg.WorldOpts, func(c mp.Comm) error {
		me := c.Rank()
		c.SetTracer(cfg.Trace.Rank(me))

		start := time.Now()
		img := plan.RenderRankObserved(me, c.Tracer(), &renderStats[me])
		tally.Rendered(time.Since(start))

		var pristine *frame.Image
		if cfg.Validate {
			pristine = img.Clone()
		}

		if err := c.Barrier(); err != nil { // compositing starts together
			return err
		}
		out, rs, err := plan.Frame(c, img, &tally)
		if err != nil {
			return err
		}
		rankStats[me] = rs
		if me == 0 {
			final = out
		}
		if cfg.Validate {
			d, err := validateAgainstSequential(c, plan.Dec, plan.Cam.Dir, pristine, out)
			if err != nil {
				return err
			}
			if me == 0 {
				validateDiff = d
			}
			pristine.Release()
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	p := costmodel.SP2()
	cost := p.World(rankStats)
	row := &Row{
		Dataset: cfg.Dataset, Method: rankStats[0].Method, P: cfg.P,
		Width: cfg.Width, Height: cfg.Height,
		CompMS:         ms(cost.Comp),
		CommMS:         ms(cost.Comm),
		TotalMS:        ms(cost.Comp) + ms(cost.Comm),
		MeasuredCompMS: ms(stats.MaxCompWall(rankStats)),
		MMax:           stats.MaxMessageBytes(rankStats),
	}
	if slices.Contains(core.PaperMethods(), cfg.Method) {
		row.MakespanMS = ms(p.Makespan(rankStats))
	}
	var samples, maxSamples int64
	for me, r := range rankStats {
		row.EmptyRects += r.EmptyRecvRects()
		s := renderStats[me].Snapshot().Samples
		samples += s
		maxSamples = max(maxSamples, s)
	}
	if samples > 0 {
		row.RenderImbalance = float64(maxSamples) * float64(cfg.P) / float64(samples)
	}
	row.RenderMS = ms(time.Duration(tally.Render.Load()))
	row.ValidateDiff = validateDiff
	if final != nil {
		row.NonBlank = final.CountNonBlank(final.Full())
	}
	return row, final, rankStats, nil
}

// validateAgainstSequential gathers every rank's pristine subimage at
// rank 0, composites them sequentially in the decomposition's depth
// order, and compares with the parallel result. One reference path
// serves every method at every rank count.
func validateAgainstSequential(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	pristine, final *frame.Image) (float64, error) {
	b := pristine.Bounds()
	payload := make([]byte, frame.RectBytes, frame.RectBytes+b.Area()*frame.PixelBytes)
	frame.PutRect(payload, b)
	payload = frame.EncodeRegion(pristine, b, payload)
	parts, err := c.Gather(0, payload)
	if err != nil {
		return 0, err
	}
	if c.Rank() != 0 {
		return 0, nil
	}
	imgs := make([]*frame.Image, len(parts))
	full := pristine.Full()
	for r, part := range parts {
		if len(part) < frame.RectBytes {
			return 0, fmt.Errorf("harness: validate: short subimage from rank %d", r)
		}
		rb := frame.GetRect(part)
		img := frame.NewImage(full.Dx(), full.Dy())
		if !rb.Empty() {
			if len(part) != frame.RectBytes+rb.Area()*frame.PixelBytes {
				return 0, fmt.Errorf("harness: validate: bad subimage size from rank %d", r)
			}
			img.StoreWire(rb, part[frame.RectBytes:])
		}
		imgs[r] = img
	}
	ref := core.CompositeSequential(imgs, dec, viewDir)
	d := ref.MaxAbsDiff(final, full)
	if d > 1e-9 {
		return d, fmt.Errorf("harness: parallel result differs from sequential reference by %g", d)
	}
	return d, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// PowersOfTwo returns {2, 4, ..., max} — the paper's processor-count
// sweep.
func PowersOfTwo(max int) []int {
	var out []int
	for p := 2; p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}
