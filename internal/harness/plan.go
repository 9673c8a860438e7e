package harness

import (
	"fmt"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
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
	Dec  *partition.Decomposition
	// Lay is the rank geometry the world runs over — the fold plan, whose
	// core decomposition is Dec (the same boxes at a power-of-two P). Box
	// and the sequential validation reference both read it.
	Lay partition.Layout
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
	comp, plan, err := cfg.newCompositor(vol)
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
		Comp: comp, Dec: plan.Dec, Lay: plan,
		Cam: render.NewCamera(cfg.Width, cfg.Height, vol.Bounds(), cfg.RotX, cfg.RotY),
	}, nil
}

// Box returns the subvolume assigned to rank me.
func (p *Plan) Box(me int) volume.Box { return p.Lay.Box(me) }

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
	return render.Raycast(p.Vol, p.Lay.Box(me), p.Cam, p.TF, opts)
}

// CompositeRank runs the compositing phase for one rank over a standing
// communicator. Successive frames may be composited back to back on the
// same communicator without barriers: per-(source, tag) FIFO ordering
// keeps consecutive frames' messages correctly paired, the same
// guarantee consecutive collectives rely on.
//
// When a tracer is attached to c, the whole phase is recorded as a
// "compositing" span containing the compositor's per-stage spans.
func (p *Plan) CompositeRank(c mp.Comm, img *frame.Image) (*core.Result, error) {
	tr := c.Tracer()
	m := tr.Begin()
	res, err := p.Comp.Composite(c, p.Dec, p.Cam.Dir, img)
	tr.End(m, trace.SpanCompositing, "")
	return res, err
}

// GatherRank assembles the distributed final image at rank 0 from this
// rank's compositing result; non-root ranks receive nil. The gather
// records its own "gather" span and labels its comm spans with the
// "gather" stage, so the reports can separate them from binary-swap
// exchange waits.
func (p *Plan) GatherRank(c mp.Comm, res *core.Result) (*frame.Image, error) {
	return core.GatherImage(c, 0, res)
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
