package main

import (
	"fmt"
	"sync"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/render"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
	"sortlast/internal/volume"
)

// The layer probes time calls into each module's public functions and
// read the counters the program already keeps, on the geometry of the
// workload being traced. Nothing in the program is changed to be
// measured. Every probe repeats its call and reports a median.

// results collects metric values by name.
type results map[string]float64

// msOf converts per-iteration nanoseconds to the median in milliseconds.
func msOf(ns []float64) float64 { return median(ns) / 1e6 }

// usOf converts per-iteration nanoseconds to the median in microseconds.
func usOf(ns []float64) float64 { return median(ns) / 1e3 }

// repeat times fn n times and returns each call's nanoseconds.
func repeat(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// probeVolume times dataset synthesis and the first macro-cell grid
// build. base names the built-in generator of the scene's dimensions.
func probeVolume(sc scene, base string, r results) error {
	var err error
	r["volume.generate_ms"] = msOf(repeat(3, func() {
		if _, e := volume.Generate(base); e != nil {
			err = e
		}
	}))
	r["volume.macrocells_ms"] = msOf(repeat(3, func() {
		// A fresh header over the same voxels: the grid is cached per
		// Volume, and the first build is what set-up pays.
		fresh := &volume.Volume{NX: sc.vol.NX, NY: sc.vol.NY, NZ: sc.vol.NZ, Data: sc.vol.Data}
		fresh.MacroCells()
	}))
	return err
}

// probeRender ray casts every rank's box in turn, each with the whole
// machine, and reports the slowest rank (what a frame waits for), the
// cost per ray and the work the macro-cell grid skipped.
func probeRender(plan *harness.Plan, passes int, r results) {
	p := plan.Cfg.P
	var slowest, imbalance []float64
	var totalNS float64
	var rs render.Stats
	for pass := 0; pass < passes; pass++ {
		var maxNS, sumNS float64
		for me := 0; me < p; me++ {
			t0 := time.Now()
			plan.RenderRankObserved(me, nil, &rs)
			ns := float64(time.Since(t0))
			sumNS += ns
			maxNS = max(maxNS, ns)
		}
		totalNS += sumNS
		slowest = append(slowest, maxNS)
		imbalance = append(imbalance, maxNS/(sumNS/float64(p)))
	}
	snap := rs.Snapshot()
	r["render.raycast_ms_p50"] = msOf(slowest)
	r["render.rank_imbalance"] = median(imbalance)
	r["render.ns_per_ray"] = totalNS / float64(max(snap.Rays, 1))
	r["render.samples_per_frame"] = float64(snap.Samples) / float64(passes)
	r["render.skip_share"] = snap.SkipFraction()
}

// probeFrame times the pixel-path primitives on the largest subimage and
// the display conversion on the final frame.
func probeFrame(imgs []*frame.Image, final *frame.Image, r results) error {
	img := imgs[0]
	for _, im := range imgs[1:] {
		if im.Bounds().Area() > img.Bounds().Area() {
			img = im
		}
	}
	b := img.Bounds()
	px := float64(b.Area())
	if px == 0 {
		return fmt.Errorf("layer probe: every subimage is blank")
	}
	const n = 15
	r["frame.bounding_rect_ns_px"] = median(repeat(n, func() { img.BoundingRect(b) })) / px

	var wire []byte
	r["frame.encode_region_ns_px"] = median(repeat(n, func() { wire = frame.EncodeRegion(img, b, wire[:0]) })) / px

	dst := img.Clone()
	r["frame.composite_wire_ns_px"] = median(repeat(n, func() { dst.CompositeWire(b, wire, true) })) / px

	var tmp frame.Image
	r["frame.copyfrom_us"] = usOf(repeat(n, func() { tmp.CopyFrom(img) }))

	var gray []byte
	r["frame.append_gray_us"] = usOf(repeat(n, func() { gray = final.AppendGray(gray[:0]) }))

	var enc rle.Encoding
	r["rle.encode_rect_ns_px"] = median(repeat(n, func() { rle.EncodeRect(img, b, &enc) })) / px

	packed := enc.Pack(nil)
	var codes, sink int
	var perr error
	parse := repeat(n, func() {
		w, _, err := rle.ParseWire(packed)
		if err != nil {
			perr = err
			return
		}
		codes = w.NumCodes()
		w.Walk(func(seq int, _ frame.Pixel) { sink += seq })
	})
	if perr != nil {
		return perr
	}
	r["rle.parse_wire_ns_code"] = median(parse) / float64(max(codes, 1))
	return nil
}

// probed lists the compositing methods measured one by one: the paper's
// four, and the two tile-routed schedules. Only bsbrc and dfb are in an
// end-to-end frame; the rest are here so a change to shared code shows.
var probed = []struct{ layer, method string }{
	{"core", "bs"}, {"core", "bsbr"}, {"core", "bslc"}, {"core", "bsbrc"},
	{"tilecomp", "ds"}, {"tilecomp", "dfb"},
}

// probeCompositors runs each method for a number of frames over one
// standing world of the scene's size and transport. A frame's wall time
// is the slowest rank's Composite from a common barrier; bytes, messages
// and pixels come from the method's own exact counters, and the paper's
// Eq. 1–8 prediction is evaluated over those same counters.
func probeCompositors(sc scene, plan *harness.Plan, imgs []*frame.Image, frames int, r results) (*frame.Image, error) {
	world, err := newWorld(sc.p, sc.net)
	if err != nil {
		return nil, err
	}
	defer world.stop()
	var final *frame.Image
	for _, pm := range probed {
		comp, err := core.New(pm.method)
		if err != nil {
			return nil, err
		}
		compNS := make([][]float64, sc.p)
		gatherNS := make([]float64, frames)
		rank := make([]*stats.Rank, sc.p)
		errs := make([]error, sc.p)
		var wg sync.WaitGroup
		for me := 0; me < sc.p; me++ {
			wg.Add(1)
			go func(me int) {
				defer wg.Done()
				c := world.comms[me]
				compNS[me] = make([]float64, frames)
				var img frame.Image
				for f := 0; f < frames; f++ {
					img.CopyFrom(imgs[me])
					if errs[me] = c.Barrier(); errs[me] != nil {
						return
					}
					t0 := time.Now()
					res, err := comp.Composite(c, plan.Dec, plan.Cam.Dir, &img)
					compNS[me][f] = float64(time.Since(t0))
					if err != nil {
						errs[me] = err
						return
					}
					t0 = time.Now()
					out, err := core.GatherImage(c, 0, res)
					if err != nil {
						errs[me] = err
						return
					}
					if me == 0 {
						gatherNS[f] = float64(time.Since(t0))
						final = out
					}
					rank[me] = res.Stats
				}
			}(me)
		}
		wg.Wait()
		for me, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("layer probe: %s rank %d: %w", pm.method, me, err)
			}
		}
		wall := make([]float64, frames)
		for f := range wall {
			for me := range compNS {
				wall[f] = max(wall[f], compNS[me][f])
			}
		}
		var bytes, msgs, composited, codes int
		for _, rk := range rank {
			bytes += rk.BytesReceived()
			composited += rk.TotalComposited()
			msgs += rk.Fold.MsgsRecv
			for _, st := range rk.Stages {
				msgs += st.MsgsRecv
				codes += st.Codes
			}
		}
		pre := pm.layer + "." + pm.method
		r[pre+".wall_ms_p50"] = msOf(wall)
		r[pre+".wire_kb"] = float64(bytes) / 1024
		r[pre+".msgs"] = float64(msgs)
		r[pre+".mmax_kb"] = float64(stats.MaxMessageBytes(rank)) / 1024
		switch pm.method {
		case "bs", "bsbrc", "dfb":
			r["costmodel."+pm.method+".model_ms"] = float64(costmodel.SP2().World(rank).Total()) / 1e6
		}
		if pm.method == "bsbrc" { // the gather and the counts of the method render_orbit and serve_mix use
			r["core.gather_ms_p50"] = msOf(gatherNS)
			r["core.composited_px_per_frame"] = float64(composited)
			r["rle.codes_per_frame"] = float64(codes)
		}
	}
	return final, nil
}

// pingPong returns the per-exchange nanoseconds of a symmetric Sendrecv
// of size bytes between the two ranks of world.
func pingPong(world *rankWorld, size, iters int) ([]float64, error) {
	payload := make([]byte, size)
	out := make([]float64, iters)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for me := 0; me < 2; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			c := world.comms[me]
			for i := 0; i < iters; i++ {
				t0 := time.Now()
				if _, errs[me] = c.Sendrecv(1-me, 1, payload); errs[me] != nil {
					return
				}
				if me == 0 {
					out[i] = float64(time.Since(t0))
				}
			}
		}(me)
	}
	wg.Wait()
	if errs[0] != nil {
		return nil, errs[0]
	}
	return out, errs[1]
}

// probeTransport measures both message layers the same way: a 2-rank
// exchange of a small and a stage-sized message, and what it costs to
// bring a world of p ranks up (paid per frame by the one-shot path, once
// by a standing world).
func probeTransport(p int, r results) error {
	for _, tr := range []struct {
		name string
		net  bool
	}{{"mp", false}, {"mpnet", true}} {
		world, err := newWorld(2, tr.net)
		if err != nil {
			return err
		}
		small, err := pingPong(world, 8, 2000)
		var big []float64
		if err == nil {
			big, err = pingPong(world, 64<<10, 400)
		}
		world.stop()
		if err != nil {
			return fmt.Errorf("layer probe: %s ping-pong: %w", tr.name, err)
		}
		r[tr.name+".sendrecv_8b_us_p50"] = usOf(small)
		r[tr.name+".sendrecv_64k_us_p50"] = usOf(big)
	}
	var err error
	r["mp.world_start_us"] = usOf(repeat(50, func() {
		if e := mp.Run(p, mp.Options{}, func(mp.Comm) error { return nil }); e != nil {
			err = e
		}
	}))
	r["mpnet.connect_ms"] = msOf(repeat(5, func() {
		w, e := newNetWorld(p)
		if e != nil {
			err = e
			return
		}
		w.stop()
	}))
	return err
}

// probeLayers runs every scene-bound probe.
func probeLayers(sc scene, base string, frames int, r results) error {
	if err := probeVolume(sc, base, r); err != nil {
		return err
	}
	cfg := harness.Config{Volume: sc.vol, TF: sc.tf, Width: sc.size, Height: sc.size,
		P: sc.p, Method: "bsbrc", RotX: sc.rotX, RotY: sc.rotY}
	var perr error
	r["harness.newplan_ms_p50"] = msOf(repeat(20, func() {
		if _, err := harness.NewPlan(cfg); err != nil {
			perr = err
		}
	}))
	if perr != nil {
		return perr
	}
	plan, imgs, err := renderScene(sc)
	if err != nil {
		return err
	}
	probeRender(plan, 3, r)
	final, err := probeCompositors(sc, plan, imgs, frames, r)
	if err != nil {
		return err
	}
	if err := probeFrame(imgs, final, r); err != nil {
		return err
	}
	return probeTransport(sc.p, r)
}
