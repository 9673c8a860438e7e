package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// Plan is a Config resolved once: dataset volume, transfer function,
// compositor, decomposition and camera. It splits the one-shot setup
// from per-frame execution so a standing world (a resident rank pool
// serving many requests, as in internal/server) can amortize the setup
// across frames instead of paying it per render. A Plan is immutable
// after NewPlan and safe for concurrent use by all rank goroutines.
type Plan struct {
	Cfg  Config
	Vol  *volume.Volume
	TF   *transfer.Func
	Comp core.Compositor
	// Dec is the rank geometry of all P ranks, extra ranks folded into
	// its power-of-two core included.
	Dec *partition.Decomposition
	// Lay is Dec under the name the benchmark module (bench/) still
	// reads; it leaves once bench/ reads Dec.
	Lay *partition.Decomposition
	Cam *render.Camera
}

// NewPlan resolves cfg into an executable per-frame plan. Every field
// is validated before a volume is generated or a world built, so
// admission layers (the renderd server, the CLIs) get a precise error
// for a bad request at the cost of a few comparisons.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	vol, tf, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	dec, err := partition.Decompose(vol.Bounds(), cfg.P)
	if err != nil {
		return nil, err
	}
	comp, err := core.New(cfg.Method)
	if err != nil {
		return nil, err
	}
	// Warm the volume's macro-cell grid during setup so the rank
	// goroutines never serialize on its sync.Once inside the first frame
	// (the grid is cached on the volume, shared across plans through the
	// dataset cache).
	vol.MacroCells()
	return &Plan{
		Cfg: cfg, Vol: vol, TF: tf,
		Comp: comp, Dec: dec, Lay: dec,
		Cam: render.NewCamera(cfg.Width, cfg.Height, vol.Bounds(), cfg.RotX, cfg.RotY),
	}, nil
}

// Box returns the subvolume assigned to rank me.
func (p *Plan) Box(me int) volume.Box { return p.Dec.Box(me) }

// RenderRank runs the rendering phase for rank me: it ray-casts the
// rank's box of the shared volume and returns the subimage.
func (p *Plan) RenderRank(me int) *frame.Image {
	return p.RenderRankObserved(me, nil, nil)
}

// RenderRankObserved is RenderRank recording a "render" span (with a
// nested "raycast" span) on the rank's track tr and accumulating the
// ray caster's work counters (rays, samples, macro-cell skips) into rs.
// rs may be shared across ranks and frames; nil collects nothing.
func (p *Plan) RenderRankObserved(me int, tr *trace.Rank, rs *render.Stats) *frame.Image {
	m := tr.Begin()
	defer tr.End(m, trace.SpanRender, "")
	opts := p.Cfg.RenderOpts
	opts.Trace = tr
	opts.Stats = rs
	return render.Raycast(p.Vol, p.Dec.Box(me), p.Cam, p.TF, opts)
}

// Tally is one frame's account, shared by every rank of its world. A
// caller folds each rank's render wall in (Rendered) before that rank
// calls Frame; Frame folds in the rest before the rank's gather message
// leaves, so a Tally is complete by the time rank 0's Frame returns.
type Tally struct {
	Render, Composite atomic.Int64  // walls (ns), maximum over ranks
	Gather            time.Duration // rank 0's gather wall
	WireBytes         atomic.Int64  // compositing bytes received (fold and stages, not the gather), sum over ranks
}

// Rendered folds one rank's render wall into t.
func (t *Tally) Rendered(d time.Duration) { foldMax(&t.Render, d) }

// foldMax raises m to d when d is larger.
func foldMax(m *atomic.Int64, d time.Duration) {
	for old := m.Load(); int64(d) > old && !m.CompareAndSwap(old, int64(d)); old = m.Load() {
	}
}

// Frame is one rank's frame after rendering, over a standing
// communicator: it composites img inside a "compositing" span on c's
// tracer, folds this rank's share into t, gathers the final image at
// rank 0 and, on success, releases img (the gather gave back the parts
// it consumed). It returns the gathered image at rank 0, nil elsewhere,
// and this rank's compositing counters.
//
// Successive frames may run back to back on the same communicator: the
// per-(source, tag) FIFO ordering keeps consecutive frames' messages
// paired, the guarantee consecutive collectives rely on. A barrier
// before compositing is the caller's choice.
func (p *Plan) Frame(c mp.Comm, img *frame.Image, t *Tally) (*frame.Image, *stats.Rank, error) {
	tr := c.Tracer()
	m := tr.Begin()
	start := time.Now()
	res, err := p.Comp.Composite(c, p.Dec, p.Cam.Dir, img)
	tr.End(m, trace.SpanCompositing, "")
	if err != nil {
		return nil, nil, err
	}
	foldMax(&t.Composite, time.Since(start))
	t.WireBytes.Add(int64(res.Stats.BytesReceived()))
	start = time.Now()
	out, err := core.GatherImage(c, 0, res)
	if c.Rank() == 0 {
		t.Gather = time.Since(start)
	}
	if err != nil {
		return nil, nil, err
	}
	img.Release()
	return out, res.Stats, nil
}

// check validates a Config without generating volumes or building a
// world. (Not named validate: Validate is the Config field enabling the
// sequential-reference comparison.)
func (cfg *Config) check() error {
	if cfg.Volume == nil && !KnownDataset(cfg.Dataset) {
		return fmt.Errorf("harness: unknown dataset %q (have %v)", cfg.Dataset, Datasets())
	}
	if cfg.Volume != nil && cfg.TF == nil {
		if _, err := transfer.Preset(cfg.Dataset); err != nil {
			return fmt.Errorf("harness: no transfer function for volume: %w", err)
		}
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return fmt.Errorf("harness: image size %dx%d must be positive", cfg.Width, cfg.Height)
	}
	if cfg.P <= 0 {
		return fmt.Errorf("harness: P = %d must be positive", cfg.P)
	}
	if _, err := core.New(cfg.Method); err != nil {
		return err
	}
	return nil
}
