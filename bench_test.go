// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), plus the ablations DESIGN.md calls out. Each
// sub-benchmark times the compositing phase (what the paper's tables
// measure — rendering is cached, the final display gather excluded) and
// reports the paper-comparable modeled costs as custom metrics:
//
//	model_comp_ms  — T_comp under the SP2 cost model (Eq. 1/3/5/7)
//	model_comm_ms  — T_comm under the SP2 cost model (Eq. 2/4/6/8)
//	model_total_ms — their sum, the quantity in Tables 1-2 and Figs 8-11
//	Mmax_KB        — maximum received message size (Eq. 9)
//
// Wall-clock ns/op is the host's compositing time (including per-
// iteration buffer duplication) and is NOT comparable to the paper's SP2.
//
//	Table 1  -> BenchmarkTable1        (384x384, BS/BSBR/BSLC/BSBRC)
//	Table 2  -> BenchmarkTable2        (768x768, BSBR/BSLC/BSBRC)
//	Figure 8 -> BenchmarkFigure8       (Engine_low series)
//	Figure 9 -> BenchmarkFigure9       (Head series)
//	Figure 10-> BenchmarkFigure10      (Engine_high series)
//	Figure 11-> BenchmarkFigure11      (Cube series)
//	Eq. 9    -> BenchmarkMaxMessage
//	§3.2     -> BenchmarkRotation      (empty bounding rectangles)
//	§5       -> BenchmarkNonPowerOfTwo (fold extension)
//	ablations-> BenchmarkAblation*     and BenchmarkBaselines
package sortlast

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

var paperP = []int{2, 4, 8, 16, 32, 64}

// The paper's test images are rendered from a rotated viewpoint (its
// Figure 7 shows the objects at an angle); an axis-aligned view makes
// kd split planes separate paired footprints exactly in screen space,
// which degenerates the bounding-rectangle methods. All table/figure
// benches therefore use the same slightly rotated camera.
const paperRotX, paperRotY = 20, 30

// benchEnv is a rendered scene ready for repeated compositing runs.
type benchEnv struct {
	p    int
	dec  *partition.Decomposition
	cam  *render.Camera
	imgs []*frame.Image
}

var envCache sync.Map // string -> *benchEnv

// getEnv renders (once) the per-rank subimages for a configuration.
func getEnv(b testing.TB, dataset string, size, p int, rotX, rotY float64) *benchEnv {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d/%g/%g", dataset, size, p, rotX, rotY)
	if v, ok := envCache.Load(key); ok {
		return v.(*benchEnv)
	}
	vol, tf, err := harness.Dataset(dataset)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := partition.Decompose(vol.Bounds(), p)
	if err != nil {
		b.Fatal(err)
	}
	cam := render.NewCamera(size, size, vol.Bounds(), rotX, rotY)
	env := &benchEnv{p: p, dec: dec, cam: cam, imgs: make([]*frame.Image, p)}
	for r := 0; r < p; r++ {
		env.imgs[r] = render.Raycast(vol, dec.Box(r), cam, tf, render.Options{})
	}
	envCache.Store(key, env)
	return env
}

func benchWorldOpts() mp.Options { return mp.Options{RecvTimeout: 120 * time.Second} }

// compositeOnce runs one compositing phase over fresh copies of the
// rendered subimages and returns the per-rank counters.
func compositeOnce(b testing.TB, env *benchEnv, method string, granularity int) []*stats.Rank {
	b.Helper()
	comp, err := core.Build(method, granularity)
	if err != nil {
		b.Fatal(err)
	}
	rs := make([]*stats.Rank, env.p)
	err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
		img := env.imgs[c.Rank()].Clone()
		res, err := comp.Composite(c, env.dec, env.cam.Dir, img)
		if err != nil {
			return err
		}
		rs[c.Rank()] = res.Stats
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// reportModel attaches the paper-comparable metrics to the bench result.
func reportModel(b *testing.B, rs []*stats.Rank) {
	cost := costmodel.SP2().World(rs)
	b.ReportMetric(float64(cost.Comp)/1e6, "model_comp_ms")
	b.ReportMetric(float64(cost.Comm)/1e6, "model_comm_ms")
	b.ReportMetric(float64(cost.Total())/1e6, "model_total_ms")
	b.ReportMetric(float64(stats.MaxMessageBytes(rs))/1024, "Mmax_KB")
}

// benchCell is one (dataset, method, P, size) table cell.
func benchCell(b *testing.B, dataset, method string, p, size int) {
	env := getEnv(b, dataset, size, p, paperRotX, paperRotY)
	var rs []*stats.Rank
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs = compositeOnce(b, env, method, 0)
	}
	b.StopTimer()
	reportModel(b, rs)
}

// BenchmarkTable1 regenerates Table 1: compositing time of BS, BSBR,
// BSLC and BSBRC on the four 384x384 test images for P = 2..64.
func BenchmarkTable1(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, ds := range []string{"engine_low", "engine_high", "head", "cube"} {
		for _, m := range []string{"bs", "bsbr", "bslc", "bsbrc"} {
			for _, p := range paperP {
				b.Run(fmt.Sprintf("%s/%s/P%d", ds, m, p), func(b *testing.B) {
					benchCell(b, ds, m, p, 384)
				})
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the three proposed methods on the
// four 768x768 test samples.
func BenchmarkTable2(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, ds := range []string{"engine_low", "engine_high", "head", "cube"} {
		for _, m := range []string{"bsbr", "bslc", "bsbrc"} {
			for _, p := range paperP {
				b.Run(fmt.Sprintf("%s/%s/P%d", ds, m, p), func(b *testing.B) {
					benchCell(b, ds, m, p, 768)
				})
			}
		}
	}
}

// benchFigure regenerates one of Figures 8-11: the full P series of the
// three proposed methods on one dataset. One benchmark iteration
// produces the whole series; the modeled totals of the largest P are
// reported as the headline metrics.
func benchFigure(b *testing.B, dataset string) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	envs := make([]*benchEnv, len(paperP))
	for i, p := range paperP {
		envs[i] = getEnv(b, dataset, 384, p, paperRotX, paperRotY)
	}
	methods := []string{"bsbr", "bslc", "bsbrc"}
	last := map[string][]*stats.Rank{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range paperP {
			for _, m := range methods {
				rs := compositeOnce(b, envs[j], m, 0)
				if j == len(paperP)-1 {
					last[m] = rs
				}
			}
		}
	}
	b.StopTimer()
	model := costmodel.SP2()
	for _, m := range methods {
		c := model.World(last[m])
		b.ReportMetric(float64(c.Total())/1e6, m+"_total_ms_P64")
	}
}

// BenchmarkFigure8 is the Engine_low series (the paper's Figure 8).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, "engine_low") }

// BenchmarkFigure9 is the Head series (Figure 9).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "head") }

// BenchmarkFigure10 is the Engine_high series (Figure 10).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "engine_high") }

// BenchmarkFigure11 is the Cube series (Figure 11).
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "cube") }

// BenchmarkMaxMessage regenerates the Eq. 9 comparison: M_max of the
// four methods (reported in KB) on each dataset at P = 16.
func BenchmarkMaxMessage(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, ds := range []string{"engine_low", "engine_high", "head", "cube"} {
		b.Run(ds, func(b *testing.B) {
			env := getEnv(b, ds, 384, 16, paperRotX, paperRotY)
			mm := map[string]int{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range []string{"bs", "bsbr", "bslc", "bsbrc"} {
					mm[m] = stats.MaxMessageBytes(compositeOnce(b, env, m, 0))
				}
			}
			b.StopTimer()
			for _, m := range []string{"bs", "bsbr", "bslc", "bsbrc"} {
				b.ReportMetric(float64(mm[m])/1024, m+"_Mmax_KB")
			}
		})
	}
}

// BenchmarkRotation regenerates the §3.2 analysis: the number of empty
// receiving bounding rectangles under viewpoint rotation about zero, one
// and two axes (more rotation -> fewer empty rectangles -> more BSBRC
// traffic).
func BenchmarkRotation(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	rots := []struct {
		name       string
		rotX, rotY float64
	}{
		{"axis0", 0, 0},
		{"axis1", 0, 30},
		{"axis2", 25, 40},
	}
	for _, rot := range rots {
		b.Run(rot.name, func(b *testing.B) {
			env := getEnv(b, "engine_high", 384, 16, rot.rotX, rot.rotY)
			var rs []*stats.Rank
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs = compositeOnce(b, env, "bsbrc", 0)
			}
			b.StopTimer()
			empty := 0
			for _, r := range rs {
				empty += r.EmptyRecvRects()
			}
			b.ReportMetric(float64(empty), "empty_rects")
			reportModel(b, rs)
		})
	}
}

// BenchmarkNonPowerOfTwo exercises the §5 fold extension end to end on
// rank counts between the powers of two.
func BenchmarkNonPowerOfTwo(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, p := range []int{3, 6, 12, 24, 48} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			var row *harness.Row
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row, _, err = harness.RunWithImage(harness.Config{
					Dataset: "engine_high", Width: 384, Height: 384,
					P: p, Method: "bsbrc",
					RotX: paperRotX, RotY: paperRotY,
					WorldOpts: benchWorldOpts(),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(row.TotalMS, "model_total_ms")
		})
	}
}

// BenchmarkCompositeAllocs measures the allocation behaviour of one full
// compositing phase (all ranks, all stages) per method at P=8, 384x384 —
// the workload of the issue's zero-copy data-path criterion. The world is
// built once and every iteration runs a complete composite over it, the
// way an interactive renderer composites successive frames on a standing
// communicator, so allocs/op isolates the data path: per-rank
// pack/encode/decode/composite work, the mandatory message copies, and
// the CopyFrom that restores each rank's working image to its pristine
// subimage every iteration (reusing the working image's storage).
// Run with -benchmem.
func BenchmarkCompositeAllocs(b *testing.B) {
	for _, m := range core.Names() {
		b.Run(m, func(b *testing.B) {
			env := getEnv(b, "engine_high", 384, 8, paperRotX, paperRotY)
			comp, err := core.New(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
				var img frame.Image
				for i := 0; i < b.N; i++ {
					img.CopyFrom(env.imgs[c.Rank()])
					if _, err := comp.Composite(c, env.dec, env.cam.Dir, &img); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCompositeAllocsTraced is BenchmarkCompositeAllocs with a span
// recorder built per frame, as renderd builds one per traced frame —
// compare against the untraced variant to see the tracing overhead on
// the compositing data path: the recorder's P preallocated span buffers
// per frame, and no append that grows them.
func BenchmarkCompositeAllocsTraced(b *testing.B) {
	for _, m := range []string{"bs", "bsbrc"} {
		b.Run(m, func(b *testing.B) {
			env := getEnv(b, "engine_high", 384, 8, paperRotX, paperRotY)
			comp, err := core.New(m)
			if err != nil {
				b.Fatal(err)
			}
			var rec *trace.Recorder
			b.ReportAllocs()
			b.ResetTimer()
			err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
				var img frame.Image
				for i := 0; i < b.N; i++ {
					// Rank 0 builds the frame's recorder; the barrier
					// publishes it, and the second one keeps every rank on
					// this frame's recorder until all are done with it.
					if c.Rank() == 0 {
						rec = trace.NewRecorder(env.p)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					c.SetTracer(rec.Rank(c.Rank()))
					img.CopyFrom(env.imgs[c.Rank()])
					if _, err := comp.Composite(c, env.dec, env.cam.Dir, &img); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkBaselines compares §2's direct send against BSBRC under
// identical conditions.
func BenchmarkBaselines(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, m := range []string{"bsbrc", "direct"} {
		b.Run(m, func(b *testing.B) {
			benchCell(b, "engine_high", m, 16, 384)
		})
	}
}

// BenchmarkAblationInterleave sweeps BSLC's interleave granularity — the
// static load-balancing design choice of §3.3 (0 means one scanline).
func BenchmarkAblationInterleave(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, g := range []int{16, 96, 384, 384 * 8} {
		b.Run(fmt.Sprintf("G%d", g), func(b *testing.B) {
			env := getEnv(b, "head", 384, 16, paperRotX, paperRotY)
			var rs []*stats.Rank
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs = compositeOnce(b, env, "bslc", g)
			}
			b.StopTimer()
			reportModel(b, rs)
		})
	}
}

// BenchmarkAblationEncodings compares the sparse-pixel encodings the
// paper discusses, as binary-swap variants on the same scene: bounding
// rectangle + bg/fg codes (BSBRC), interleaved bg/fg codes (BSLC) and
// the dense bounding rectangle (BSBR). M_max and the encoder-scan volume
// tell the story.
func BenchmarkAblationEncodings(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep")
	}
	for _, m := range []string{"bsbrc", "bslc", "bsbr"} {
		b.Run(m, func(b *testing.B) {
			env := getEnv(b, "engine_low", 384, 8, paperRotX, paperRotY)
			var rs []*stats.Rank
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs = compositeOnce(b, env, m, 0)
			}
			b.StopTimer()
			reportModel(b, rs)
			scanned := 0
			for _, r := range rs {
				for _, st := range r.Stages {
					scanned += st.Encoded
				}
			}
			b.ReportMetric(float64(scanned)/float64(env.p)/1000, "enc_scan_kpx_per_rank")
		})
	}
}
