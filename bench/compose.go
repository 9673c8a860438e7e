package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/mpnet"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

const (
	composeSize = 384
	composeP    = 8
)

// served are the two compositing schedules the system serves, both in
// every compose frame: the paper's binary swap with bounding rectangle
// and run-length encoding, and the DFB-style tile-routed reduction.
var served = [2]struct{ method, span string }{
	{"bsbrc", "core.composite"},
	{"dfb", "tilecomp.composite"},
}

// fogVolume is the dense end of the sparsity axis, which none of the
// built-in datasets reaches: every voxel is lightly opaque, so every
// subimage fills its footprint and rectangles and run-length codes save
// almost nothing. Values are seeded noise in [96, 160).
func fogVolume(seed int64) (*volume.Volume, *transfer.Func) {
	v := volume.New(256, 256, 110)
	r := newRNG(seed, "fog")
	d := v.Data
	for i := 0; i+8 <= len(d); i += 8 {
		x := r.next()
		for k := 0; k < 8; k++ {
			d[i+k] = 96 + uint8(x>>(8*k))&63
		}
	}
	return v, transfer.Ramp("fog", 0, 255, 0.05)
}

// rankWorld is a standing set of P communicators and how to stop them.
type rankWorld struct {
	comms []mp.Comm
	stop  func()
}

// composeWorldOpts bounds a receive so a failed rank fails the frame
// instead of hanging the run for the default minute.
var composeWorldOpts = mp.Options{RecvTimeout: 10 * time.Second}

func newProcWorld(p int) (*rankWorld, error) {
	w, err := mp.NewWorld(p, composeWorldOpts)
	if err != nil {
		return nil, err
	}
	rw := &rankWorld{comms: make([]mp.Comm, p), stop: w.Shutdown}
	for r := range rw.comms {
		if rw.comms[r], err = w.Comm(r); err != nil {
			return nil, err
		}
	}
	return rw, nil
}

// newNetWorld runs every rank as an mpnet node over loopback TCP inside
// this process: ephemeral listeners first, so every rank knows its
// peers' real addresses before anyone dials.
func newNetWorld(p int) (*rankWorld, error) {
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*mpnet.Node, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			nodes[r], errs[r] = mpnet.Connect(mpnet.Config{
				Rank: r, Addrs: addrs, Listener: listeners[r], Opts: composeWorldOpts})
		}(r)
	}
	wg.Wait()
	rw := &rankWorld{comms: make([]mp.Comm, p)}
	rw.stop = func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		rw.stop()
		return nil, err
	}
	for r, n := range nodes {
		rw.comms[r] = n.Comm()
	}
	return rw, nil
}

func newWorld(p int, overTCP bool) (*rankWorld, error) {
	if overTCP {
		return newNetWorld(p)
	}
	return newProcWorld(p)
}

// composeOut is what one compose frame delivers to its caller: the
// gathered image of each served method.
type composeOut [len(served)]*frame.Image

// compose is the standing-world compositing loop: P resident ranks hold
// pre-rendered subimages, and a frame restores each rank's subimage,
// composites and gathers at rank 0 — once per served method.
type compose struct {
	dense bool // fog volume over in-process channels; else engine_high over TCP

	sc    scene
	plan  *harness.Plan
	imgs  []*frame.Image
	comps [len(served)]core.Compositor
	world *rankWorld

	start  []chan composeCmd
	done   chan rankDone
	ranks  sync.WaitGroup
	broken bool // a rank failed: the world cannot serve another frame

	sampleSet[composeOut]
}

type composeCmd struct {
	i    int
	rec  *recorder
	root int // the frame's root span
}

type rankDone struct {
	out composeOut // rank 0 only
	err error
}

func (w *compose) setup(seed int64, _ runPlan) error {
	w.sc = scene{size: composeSize, p: composeP, net: !w.dense}
	w.sc.rotX, w.sc.rotY = composeCamera(seed)
	if w.dense {
		w.sc.vol, w.sc.tf = fogVolume(seed)
	} else {
		var err error
		if w.sc.vol, w.sc.tf, err = harness.Dataset("engine_high"); err != nil {
			return err
		}
	}
	var err error
	if w.plan, w.imgs, err = renderScene(w.sc); err != nil {
		return err
	}
	for k, m := range served {
		if w.comps[k], err = core.New(m.method); err != nil {
			return err
		}
	}
	if w.world, err = newWorld(composeP, w.sc.net); err != nil {
		return err
	}
	w.start = make([]chan composeCmd, composeP)
	w.done = make(chan rankDone, composeP) // one send per rank per frame
	for r := range w.start {
		w.start[r] = make(chan composeCmd)
		w.ranks.Add(1)
		go w.rankLoop(r)
	}
	return nil
}

// renderScene resolves a scene to its plan (decomposition, camera) and
// ray casts every rank's subimage.
func renderScene(sc scene) (*harness.Plan, []*frame.Image, error) {
	plan, err := harness.NewPlan(harness.Config{
		Volume: sc.vol, TF: sc.tf, Width: sc.size, Height: sc.size,
		P: sc.p, Method: "bsbrc", RotX: sc.rotX, RotY: sc.rotY,
	})
	if err != nil {
		return nil, nil, err
	}
	imgs := make([]*frame.Image, sc.p)
	for r := range imgs {
		imgs[r] = plan.RenderRank(r)
	}
	return plan, imgs, nil
}

func (w *compose) rankLoop(me int) {
	defer w.ranks.Done()
	c := w.world.comms[me]
	var img frame.Image
	for cmd := range w.start[me] {
		var d rankDone
		for k, m := range served {
			s := cmd.rec.begin("frame.copyfrom", cmd.root, cmd.i, me)
			img.CopyFrom(w.imgs[me])
			cmd.rec.end(s)

			s = cmd.rec.begin(m.span, cmd.root, cmd.i, me)
			res, err := w.comps[k].Composite(c, w.plan.Dec, w.plan.Cam.Dir, &img)
			cmd.rec.end(s)
			if err != nil {
				d.err = err
				break
			}

			s = cmd.rec.begin("core.gather", cmd.root, cmd.i, me)
			out, err := core.GatherImage(c, 0, res)
			cmd.rec.end(s)
			if err != nil {
				d.err = err
				break
			}
			d.out[k] = out
		}
		w.done <- d
	}
}

func (w *compose) frame(i int, rec *recorder) error {
	if w.broken {
		return errors.New("compose: world failed on an earlier frame")
	}
	cmd := composeCmd{i: i, rec: rec, root: rec.begin("bench.frame", -1, i, -1)}
	for _, ch := range w.start {
		ch <- cmd
	}
	var out composeOut
	var err error
	for range w.start {
		d := <-w.done
		if d.err != nil && err == nil {
			err = d.err
		}
		if d.out[0] != nil {
			out = d.out
		}
	}
	rec.end(cmd.root)
	if err != nil {
		w.broken = true
		return err
	}
	w.keep(i, out)
	return nil
}

// sequential is the reference every method must match: the subimages
// composited on one processor in depth order.
func (w *compose) sequential() *frame.Image {
	return core.CompositeSequential(w.imgs, w.plan.Dec, w.plan.Cam.Dir)
}

// gate runs every registered compositing method once at P=8 over the
// workload's subimages and compares each gathered image with the
// sequential reference.
func (w *compose) gate() error {
	ref := w.sequential()
	for _, name := range core.Names() {
		comp, err := core.New(name)
		if err != nil {
			return err
		}
		var final *frame.Image
		err = mp.Run(composeP, composeWorldOpts, func(c mp.Comm) error {
			res, err := comp.Composite(c, w.plan.Dec, w.plan.Cam.Dir, w.imgs[c.Rank()].Clone())
			if err != nil {
				return err
			}
			out, err := core.GatherImage(c, 0, res)
			if c.Rank() == 0 {
				final = out
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("compose gate: %s: %w", name, err)
		}
		if err := checkImage("compose gate: "+name, final, ref); err != nil {
			return err
		}
	}
	return nil
}

func (w *compose) verify() error {
	if err := w.missing(); err != nil {
		return err
	}
	ref := w.sequential()
	for i, out := range w.got {
		for k, m := range served {
			if err := checkImage(fmt.Sprintf("compose frame %d %s", i, m.method), out[k], ref); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *compose) scene() (scene, error) { return w.sc, nil }

func (w *compose) close() {
	for _, ch := range w.start {
		close(ch)
	}
	w.start = nil
	w.ranks.Wait()
	if w.world != nil {
		w.world.stop()
		w.world = nil
	}
}
