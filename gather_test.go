package sortlast

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// fogEnv is the dense end of the sparsity axis, which no built-in
// dataset reaches: every voxel lightly opaque, so every subimage fills
// its footprint and a run-length codec has next to nothing to skip.
func fogEnv(tb testing.TB, size, p int) *benchEnv {
	tb.Helper()
	vol := volume.New(64, 64, 28)
	rng := rand.New(rand.NewSource(18))
	for i := range vol.Data {
		vol.Data[i] = 96 + uint8(rng.Intn(64))
	}
	dec, err := partition.Decompose(vol.Bounds(), p)
	if err != nil {
		tb.Fatal(err)
	}
	cam := render.NewCamera(size, size, vol.Bounds(), paperRotX, paperRotY)
	env := &benchEnv{p: p, dec: dec, cam: cam, imgs: make([]*frame.Image, p)}
	for r := range env.imgs {
		env.imgs[r] = render.Raycast(vol, dec.Box(r), cam, transfer.Ramp("fog", 0, 255, 0.05), render.Options{})
	}
	return env
}

// compositeAndGather runs one frame of method over env and returns every
// rank's result (counters filled by both phases).
func compositeAndGather(tb testing.TB, env *benchEnv, method string) []*core.Result {
	tb.Helper()
	comp, err := core.New(method)
	if err != nil {
		tb.Fatal(err)
	}
	results := make([]*core.Result, env.p)
	err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
		res, err := comp.Composite(c, env.dec, env.cam.Dir, env.imgs[c.Rank()].Clone())
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		_, err = core.GatherImage(c, 0, res)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// ownedRegions counts the regions an ownership travels as.
func ownedRegions(own core.Ownership) int {
	if set, ok := own.(core.RectSetOwn); ok {
		return len(set.Rs)
	}
	return 1
}

// The gather ships what the codecs leave of the owned regions, not the
// regions: on the paper's sparse scene at least five times fewer bytes
// than the dense Area() x 16 it replaced, and on fog — where there is
// nothing to skip — never more than dense plus a header per region.
func TestGatherBytes(t *testing.T) {
	sparse := getEnv(t, "engine_high", 384, 8, paperRotX, paperRotY)
	fog := fogEnv(t, 192, 8)
	for _, method := range []string{"bsbrc", "dfb"} {
		for name, env := range map[string]*benchEnv{"engine_high": sparse, "fog": fog} {
			var sent, dense, regions int
			for r, res := range compositeAndGather(t, env, method) {
				if r == 0 {
					continue // the root's pixels never touch the wire
				}
				sent += res.Stats.Gather.BytesSent
				dense += res.Own.Area() * frame.PixelBytes
				regions += ownedRegions(res.Own)
			}
			t.Logf("%s %s: gather payload %d B, dense %d B (%.1f%%), %d regions",
				method, name, sent, dense, 100*float64(sent)/float64(dense), regions)
			if name == "fog" {
				if sent > dense+64*regions {
					t.Errorf("%s %s: the codec costs bytes: %d sent, dense is %d over %d regions",
						method, name, sent, dense, regions)
				}
			} else if 5*sent > dense {
				t.Errorf("%s %s: gather payload %d B is more than a fifth of dense (%d B)",
					method, name, sent, dense)
			}
		}
	}
}

// largeAllocs returns the number of heap allocations of at least 1 KiB
// the process has made so far.
func largeAllocs() uint64 {
	// Small-object counts reach the metric when a P's allocation cache is
	// flushed; ReadMemStats flushes them all.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	var n uint64
	for i, c := range h.Counts {
		if h.Buckets[i] >= 1024 {
			n += c
		}
	}
	return n
}

// On a standing world, after warm-up, a frame — each rank restores its
// working image with CopyFrom, composites it and gathers — allocates one
// thing of 1 KiB or more: the root's pixel storage. The senders encode
// into arena scratch, the transport copies into released receive
// buffers, the owner-merge accumulators come from the pixel pool the
// previous frame's gather gave them back to, and the root grows its
// image once.
func TestGatherAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	env := getEnv(t, "engine_high", 384, 8, paperRotX, paperRotY)
	for _, method := range []string{"bsbrc", "dfb"} {
		comp, err := core.New(method)
		if err != nil {
			t.Fatal(err)
		}
		w, err := mp.NewWorld(env.p, benchWorldOpts())
		if err != nil {
			t.Fatal(err)
		}
		start := make([]chan struct{}, env.p)
		done := make(chan error, env.p)
		for r := range start {
			start[r] = make(chan struct{})
			c, err := w.Comm(r)
			if err != nil {
				t.Fatal(err)
			}
			go func(r int, c mp.Comm) {
				var img frame.Image
				for range start[r] {
					img.CopyFrom(env.imgs[r])
					res, err := comp.Composite(c, env.dec, env.cam.Dir, &img)
					if err == nil {
						_, err = core.GatherImage(c, 0, res)
					}
					done <- err
				}
			}(r, c)
		}
		frame := func() {
			for _, ch := range start {
				ch <- struct{}{}
			}
			for range start {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		}
		// One P, as testing.AllocsPerRun arranges, so a released buffer
		// is in the pool the next receive looks in; no collection, so
		// the pool is not emptied halfway. Warm-up sizes the arenas and
		// fills the pools; a swap rank's working image also keeps the
		// largest store its stages regrew it to (CopyFrom's retained
		// store), and bsbrc's settle only by the sixth frame — after
		// three frames it still reads 23 in 21. What repeats exactly is
		// the settled frame, so that is what is counted.
		procs := runtime.GOMAXPROCS(1)
		gc := debug.SetGCPercent(-1)
		for i := 0; i < 8; i++ {
			frame()
		}
		const runs = 20
		largeAllocs() // the first read allocates the runtime's metric tables
		before := largeAllocs()
		perFrame := testing.AllocsPerRun(runs, frame)
		large := largeAllocs() - before
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
		for _, ch := range start {
			close(ch)
		}
		t.Logf("%s: %.0f allocations per frame across %d ranks, %d of them >= 1 KiB over %d frames",
			method, perFrame, env.p, large, runs+1)
		if large != runs+1 { // AllocsPerRun warms up with one extra call
			t.Errorf("%s: %d allocations >= 1 KiB in %d frames, want one each (the root's pixel storage)",
				method, large, runs+1)
		}
	}
}

// A folded composite on a standing world allocates nothing of 1 KiB or
// more once warm, like every other composite: the core rank that
// pre-composites its extra partner's subimage gives the fold message
// back to the receive pool, and the extra rank keeps its grown send
// buffer in its arena. Each of the two, missing, cost one such
// allocation per folded composite.
func TestFoldedCompositeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	plan, err := harness.NewPlan(harness.Config{Dataset: "head", Width: 256, Height: 256, P: 3,
		Method: "bsbrc", RotX: paperRotX, RotY: paperRotY})
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*frame.Image, 3)
	for r := range imgs {
		imgs[r] = plan.RenderRank(r)
	}
	// One P and no collection, as in TestGatherAllocs, so a released
	// buffer is in the pool the next receive looks in.
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	}()
	const warm, composites = 3, 20
	var before, after uint64
	largeAllocs() // the first read allocates the runtime's metric tables
	err = mp.Run(3, benchWorldOpts(), func(c mp.Comm) error {
		read := func(n *uint64) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				*n = largeAllocs()
			}
			return c.Barrier()
		}
		var img frame.Image
		for i := 0; i < warm+composites; i++ {
			if i == warm {
				if err := read(&before); err != nil {
					return err
				}
			}
			img.CopyFrom(imgs[c.Rank()])
			if _, err := plan.Comp.Composite(c, plan.Dec, plan.Cam.Dir, &img); err != nil {
				return err
			}
			// A frame's gather would hold the extra rank, which only
			// sends, to one composite ahead at most; without it the
			// extra rank queues every fold message at once.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return read(&after)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d allocations >= 1 KiB in %d composites", plan.Comp.Name(), after-before, composites)
	if after != before {
		t.Errorf("%s: %d allocations >= 1 KiB in %d composites, want none",
			plan.Comp.Name(), after-before, composites)
	}
}

// A one-shot frame — render_orbit's shape: head, 256², P=4, bsbrc
// through harness.RunWithImage — allocates the root's frame and little
// else. Each rank's subimage, sized to its footprint, and the exact
// rectangles the swap stages regrow it to come from the pixel pool, and
// the run gives them back once the gather has read them, so the next
// frame's ranks render into the same memory. That is 240–360 KiB;
// before the pool it was 1.1 MiB (every subimage and regrowth allocated
// fresh), and padding each growth by half its extent made it 3.2 MiB.
func TestOneShotFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the frame's")
	}
	cfg := harness.Config{Dataset: "head", Width: 256, Height: 256, P: 4, Method: "bsbrc",
		RotX: paperRotX, RotY: paperRotY}
	const frames, limit = 3, 640 << 10
	var before, after runtime.MemStats
	for i := -1; i < frames; i++ { // frame -1 builds the dataset and its macro grid
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if _, _, err := harness.RunWithImage(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("bsbrc, P=4, 256x256 head: %d KiB allocated per frame", perFrame>>10)
	if perFrame > limit {
		t.Errorf("%d B allocated per frame, limit %d", perFrame, limit)
	}
}

// BenchmarkOneShotFrame is render_orbit's frame — head, 256², P=4,
// bsbrc through harness.RunWithImage — on an orbit of 36 cameras, so
// subimage sizes change from frame to frame as they do in the bench.
// B/op is what a one-shot frame allocates.
func BenchmarkOneShotFrame(b *testing.B) {
	cfg := harness.Config{Dataset: "head", Width: 256, Height: 256, P: 4, Method: "bsbrc",
		RotX: paperRotX}
	if _, _, err := harness.RunWithImage(cfg); err != nil { // the dataset and its macro grid
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.RotY = float64(i%36) * 10
		if _, _, err := harness.RunWithImage(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// A dfb frame on a standing world allocates the root's image and little
// else: the owners' accumulators come from the pixel pool, where the
// previous frame's gather gave them back. On dense subimages, where
// every tile under the volume is reached, composite plus gather stay
// under 2 MiB a frame — ~1.25 MiB; 3.2 MiB when each frame allocated
// its accumulators fresh, 33.7 MiB when every rank merged into one
// image that regrew.
func TestDFBFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	env := fogEnv(t, 384, 8)
	comp, err := core.New("dfb")
	if err != nil {
		t.Fatal(err)
	}
	const warm, frames, limit = 3, 10, 2 << 20
	var before, after runtime.MemStats
	err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
		// read samples the process between frames: every rank is in the
		// barrier pair while rank 0 looks.
		read := func(m *runtime.MemStats) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(m)
			}
			return c.Barrier()
		}
		var img frame.Image
		for i := 0; i < warm+frames; i++ {
			if i == warm {
				if err := read(&before); err != nil {
					return err
				}
			}
			img.CopyFrom(env.imgs[c.Rank()])
			res, err := comp.Composite(c, env.dec, env.cam.Dir, &img)
			if err != nil {
				return err
			}
			if _, err := core.GatherImage(c, 0, res); err != nil {
				return err
			}
		}
		return read(&after)
	})
	if err != nil {
		t.Fatal(err)
	}
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("dfb, P=%d, 384x384 fog: %d KiB allocated per frame", env.p, perFrame>>10)
	if perFrame > limit {
		t.Errorf("%d B allocated per frame, limit %d", perFrame, limit)
	}
}

// BenchmarkGatherAllocs is BenchmarkCompositeAllocs with the final
// gather after every composite — the whole frame after rendering, as the
// standing worlds of renderd and bench/ run it. Run with -benchmem. The
// timer runs over the settled frames only: each world warms up first,
// so world start, the pools' first fill and each rank's first-frame
// CopyFrom growth stay out of B/op at any -benchtime, and it stops
// before the world is torn down.
func BenchmarkGatherAllocs(b *testing.B) {
	const warm = 6 // bsbrc's working images settle by the sixth frame
	for _, m := range core.Names() {
		b.Run(m, func(b *testing.B) {
			env := getEnv(b, "engine_high", 384, 8, paperRotX, paperRotY)
			comp, err := core.New(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
				var img frame.Image
				frame := func() error {
					img.CopyFrom(env.imgs[c.Rank()])
					res, err := comp.Composite(c, env.dec, env.cam.Dir, &img)
					if err != nil {
						return err
					}
					_, err = core.GatherImage(c, 0, res)
					return err
				}
				// timer runs fn on rank 0 while every rank waits between
				// two barriers.
				timer := func(fn func()) error {
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						fn()
					}
					return c.Barrier()
				}
				for i := 0; i < warm; i++ {
					if err := frame(); err != nil {
						return err
					}
				}
				if err := timer(b.ResetTimer); err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					if err := frame(); err != nil {
						return err
					}
				}
				return timer(b.StopTimer)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
