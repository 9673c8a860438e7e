package main

import (
	"fmt"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/render"
)

// renderOrbit is the one-shot library path: every frame is a complete
// harness.RunWithImage — resolve the plan, start a 4-rank world, ray
// cast, composite with bsbrc, gather, tear the world down — at the next
// camera of a seeded orbit around the head phantom.
type renderOrbit struct {
	orbit orbit
	sampleSet[*frame.Image]
}

const (
	orbitDataset = "head"
	orbitSize    = 256
	orbitP       = 4
	orbitMethod  = "bsbrc"
)

func (w *renderOrbit) config(i int) harness.Config {
	rotX, rotY := w.orbit.camera(i)
	return harness.Config{
		Dataset: orbitDataset, Width: orbitSize, Height: orbitSize,
		P: orbitP, Method: orbitMethod, RotX: rotX, RotY: rotY,
	}
}

func (w *renderOrbit) setup(seed int64, pl runPlan) error {
	w.orbit = newOrbit(seed, pl.chunk) // one chunk is one full turn
	// The dataset cache and the macro-cell grid are what a library user
	// pays once per process; the first frame then pays the rest.
	_, _, err := harness.Dataset(orbitDataset)
	return err
}

func (w *renderOrbit) frame(i int, rec *recorder) error {
	cfg := w.config(i)
	var img *frame.Image
	var err error
	if rec == nil {
		_, img, err = harness.RunWithImage(cfg)
	} else {
		img, err = shadowRun(cfg, i, rec)
	}
	if err != nil {
		return err
	}
	w.keep(i, img)
	return nil
}

// shadowRun is harness.RunWithImage rebuilt from the public pieces it is
// made of, with a span around each, so a frame's time can be split by
// layer without touching the program. gate asserts it produces the same
// image.
func shadowRun(cfg harness.Config, i int, rec *recorder) (*frame.Image, error) {
	root := rec.begin("bench.frame", -1, i, -1)
	defer rec.end(root)

	s := rec.begin("harness.newplan", root, i, -1)
	plan, err := harness.NewPlan(cfg)
	rec.end(s)
	if err != nil {
		return nil, err
	}

	var final *frame.Image
	world := rec.begin("mp.world", root, i, -1)
	err = mp.Run(cfg.P, cfg.WorldOpts, func(c mp.Comm) error {
		me := c.Rank()
		s := rec.begin("render.raycast", world, i, me)
		img := plan.RenderRank(me)
		rec.end(s)

		s = rec.begin("mp.barrier", world, i, me)
		err := c.Barrier() // compositing starts together, as in harness.Run
		rec.end(s)
		if err != nil {
			return err
		}

		s = rec.begin("core.composite", world, i, me)
		res, err := plan.Comp.Composite(c, plan.Dec, plan.Cam.Dir, img)
		rec.end(s)
		if err != nil {
			return err
		}

		s = rec.begin("core.gather", world, i, me)
		out, err := core.GatherImage(c, 0, res)
		rec.end(s)
		if me == 0 {
			final = out
		}
		return err
	})
	rec.end(world)
	return final, err
}

// reference renders frame i's subimages one rank at a time and
// composites them sequentially in depth order — no world, no parallel
// compositor.
func (w *renderOrbit) reference(i int) (*frame.Image, error) {
	plan, err := harness.NewPlan(w.config(i))
	if err != nil {
		return nil, err
	}
	imgs := make([]*frame.Image, orbitP)
	for r := range imgs {
		imgs[r] = plan.RenderRank(r)
	}
	return core.CompositeSequentialLayout(imgs, plan.Lay, plan.Cam.Dir), nil
}

func (w *renderOrbit) gate() error {
	cfg := w.config(0)
	cfg.Validate = true
	row, img, err := harness.RunWithImage(cfg)
	if err != nil {
		return fmt.Errorf("render_orbit: validated frame: %w", err)
	}
	if row.ValidateDiff > 1e-9 {
		return fmt.Errorf("render_orbit: validated frame differs by %g", row.ValidateDiff)
	}
	// The accelerated ray caster against its oracle, on one rank's box.
	plan, err := harness.NewPlan(w.config(0))
	if err != nil {
		return err
	}
	const rank = 1
	fast := plan.RenderRank(rank)
	oracle := render.RaycastReference(plan.Vol, plan.Box(rank), plan.Cam, plan.TF, plan.Cfg.RenderOpts)
	if d := oracle.MaxAbsDiff(fast, oracle.Full()); d != 0 {
		return fmt.Errorf("render_orbit: rank %d subimage differs from RaycastReference by %g", rank, d)
	}
	// The traced pipeline must be the untraced one.
	shadow, err := shadowRun(w.config(0), 0, newRecorder())
	if err != nil {
		return fmt.Errorf("render_orbit: shadow pipeline: %w", err)
	}
	if d := img.MaxAbsDiff(shadow, img.Full()); d != 0 {
		return fmt.Errorf("render_orbit: shadow pipeline differs from RunWithImage by %g", d)
	}
	return nil
}

func (w *renderOrbit) verify() error {
	if err := w.missing(); err != nil {
		return err
	}
	for i, img := range w.got {
		ref, err := w.reference(i)
		if err != nil {
			return err
		}
		if err := checkImage(fmt.Sprintf("render_orbit frame %d", i), img, ref); err != nil {
			return err
		}
	}
	return nil
}

func (w *renderOrbit) scene() (scene, error) {
	vol, tf, err := harness.Dataset(orbitDataset)
	cfg := w.config(0)
	return scene{vol: vol, tf: tf, size: orbitSize, p: orbitP, rotX: cfg.RotX, rotY: cfg.RotY}, err
}

func (w *renderOrbit) close() {}
