package harness

import (
	"runtime"
	"sync"
	"testing"

	"sortlast/internal/core"
	"sortlast/internal/partition"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// smallCfg uses a tiny custom volume so harness tests stay fast; the
// paper-scale datasets are exercised by the benchmarks.
func smallCfg(method string, p int) Config {
	return Config{
		Dataset: "engine_low", // label and transfer function
		Volume:  volume.EngineBlock(32, 32, 16),
		Width:   64, Height: 64,
		P:      p,
		Method: method,
	}
}

func TestRunAllMethods(t *testing.T) {
	for _, m := range core.Names() {
		row, _, err := RunWithImage(smallCfg(m, 4))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if row.TotalMS <= 0 || row.TotalMS != row.CompMS+row.CommMS {
			t.Errorf("%s: totals inconsistent: %+v", m, row)
		}
		if row.NonBlank == 0 {
			t.Errorf("%s: final image is blank", m)
		}
		if row.P != 4 || row.Width != 64 {
			t.Errorf("%s: row echo wrong: %+v", m, row)
		}
	}
}

func TestRunWithImageMatchesAcrossMethods(t *testing.T) {
	cfg := smallCfg("bs", 4)
	cfg.RenderOpts.EarlyTermination = -1
	_, ref, err := RunWithImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"bsbr", "bslc", "bsbrc"} {
		c := smallCfg(m, 4)
		c.RenderOpts.EarlyTermination = -1
		_, img, err := RunWithImage(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := ref.MaxAbsDiff(img, ref.Full()); d != 0 {
			t.Errorf("%s image differs from bs by %g", m, d)
		}
	}
}

func TestRunNonPowerOfTwoFolds(t *testing.T) {
	for _, p := range []int{3, 5, 6} {
		row, _, err := RunWithImage(smallCfg("bsbrc", p))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if row.Method != "BSBRC+fold" {
			t.Errorf("P=%d: method = %q, want folded", p, row.Method)
		}
		if row.NonBlank == 0 {
			t.Errorf("P=%d: blank final image", p)
		}
	}
}

// NewPlan builds every P over one decomposition of P ranks, and the
// binary-swap methods fold exactly at a P that is not a power of two:
// every rank's stats.Rank.Method and the row's Method carry "+fold"
// there and only there.
func TestPlanBuildsEveryPThroughFold(t *testing.T) {
	display := map[string]string{"bs": "BS", "bsbr": "BSBR", "bslc": "BSLC", "bsbrc": "BSBRC",
		"direct": "DirectSend", "ds": "DS", "dfb": "DFB"}
	foldable := map[string]bool{"bs": true, "bsbr": true, "bslc": true, "bsbrc": true}
	for p := 1; p <= 9; p++ {
		for _, name := range core.Names() {
			cfg := smallCfg(name, p)
			plan, err := NewPlan(cfg)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			dec, err := partition.Decompose(plan.Vol.Bounds(), p)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Dec.Size() != p || plan.Lay != plan.Dec {
				t.Errorf("%s P=%d: decomposition of %d ranks, Lay %p is not Dec %p", name, p, plan.Dec.Size(), plan.Lay, plan.Dec)
			}
			for r := 0; r < p; r++ {
				if plan.Box(r) != dec.Box(r) {
					t.Errorf("%s P=%d: rank %d renders %v, the decomposition says %v", name, p, r, plan.Box(r), dec.Box(r))
				}
			}
			want := display[name]
			if foldable[name] && p&(p-1) != 0 {
				want += "+fold"
			}
			row, _, ranks, err := run(cfg)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			if row.Method != want {
				t.Errorf("%s P=%d: row method %q, want %q", name, p, row.Method, want)
			}
			for _, rs := range ranks {
				if rs.Method != want {
					t.Errorf("%s P=%d rank %d: method %q, want %q", name, p, rs.RankID, rs.Method, want)
				}
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Dataset: "nope", Width: 32, Height: 32, P: 2, Method: "bs"},
		{Dataset: "cube", Width: 0, Height: 32, P: 2, Method: "bs"},
		{Dataset: "cube", Width: 32, Height: 32, P: 0, Method: "bs"},
		{Dataset: "cube", Width: 32, Height: 32, P: 2, Method: "wat"},
	}
	for i, cfg := range bad {
		if _, _, err := RunWithImage(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDatasetCacheAndPresets(t *testing.T) {
	// The paper datasets must resolve at their native dimensions.
	for _, d := range []string{"engine_low", "engine_high", "head", "cube"} {
		v, err := datasetVolume(d)
		if err != nil {
			t.Fatal(err)
		}
		if v.NX != 256 || v.NY != 256 {
			t.Errorf("%s: %dx%dx%d", d, v.NX, v.NY, v.NZ)
		}
	}
	a, _ := datasetVolume("engine_low")
	b, _ := datasetVolume("engine_high")
	if a != b {
		t.Error("engine_low and engine_high must share the cached engine volume")
	}
}

// TestDatasetBuiltOnceUnderConcurrentFirstUse: cold callers racing for
// one dataset (two replicas' first requests, parallel Runs) share a
// single build rather than each generating a copy and discarding it.
func TestDatasetBuiltOnceUnderConcurrentFirstUse(t *testing.T) {
	datasetCache.Delete(volume.DatasetHead)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vols := make([]*volume.Volume, 8)
	var wg sync.WaitGroup
	wg.Add(len(vols))
	for i := range vols {
		go func(i int) {
			defer wg.Done()
			v, err := datasetVolume("head")
			if err != nil {
				t.Error(err)
			}
			vols[i] = v
		}(i)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for i, v := range vols {
		if v != vols[0] {
			t.Fatalf("caller %d got a different volume", i)
		}
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(vols[0].Data)); grew >= limit {
		t.Errorf("8 first callers allocated %d bytes, want < %d (two volumes)", grew, limit)
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(64)
	want := []int{2, 4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("PowersOfTwo = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PowersOfTwo = %v", got)
		}
	}
}

func TestRotationIncreasesOrKeepsEmptyRects(t *testing.T) {
	// §3.2: empty receiving rectangles exist under the straight view for
	// a compact object and the row must expose them.
	cfg := Config{
		Dataset: "cube",
		Volume:  volume.SolidCube(32, 32, 16),
		TF:      transfer.Cube(),
		Width:   64, Height: 64, P: 8, Method: "bsbrc",
	}
	row, _, err := RunWithImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.EmptyRects == 0 {
		t.Error("cube at P=8 must produce empty receiving rectangles")
	}
}

// Every registered method validates against the sequential reference at
// every rank count, folded or owner-routed.
func TestValidateModeAllMethods(t *testing.T) {
	for _, m := range core.Names() {
		for _, p := range []int{4, 3, 5, 6, 7, 12} {
			cfg := smallCfg(m, p)
			cfg.Validate = true
			cfg.RenderOpts.EarlyTermination = -1
			row, _, err := RunWithImage(cfg)
			if err != nil {
				t.Fatalf("%s P=%d: %v", m, p, err)
			}
			if row.ValidateDiff > 1e-9 {
				t.Errorf("%s P=%d: validate diff %g", m, p, row.ValidateDiff)
			}
		}
	}
}

// §3.3's claim about volume images: float pixels almost never repeat,
// so a value-run encoding degenerates to about one run per non-blank
// pixel — why the paper run-length encodes the background/foreground
// mask instead (and why PR 19 deleted the value-run codec).
func TestValueRunsDegenerateOnVolumeImages(t *testing.T) {
	cfg := smallCfg("bs", 2)
	cfg.Width, cfg.Height = 128, 128
	_, img, err := RunWithImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A value run starts wherever a pixel differs from its row-major
	// predecessor.
	px := img.PackRegion(img.Full())
	nonBlankRuns := 0
	for i, p := range px {
		if !p.Blank() && (i == 0 || p != px[i-1]) {
			nonBlankRuns++
		}
	}
	nb := img.CountNonBlank(img.Full())
	if nb == 0 {
		t.Fatal("blank image")
	}
	if volRatio := float64(nonBlankRuns) / float64(nb); volRatio < 0.9 {
		t.Errorf("volume image value-runs/px = %.3f; expected near-degenerate (~1)", volRatio)
	}
}

// The makespan is the binary-swap dependency graph: a folded swap row
// has one, a dfb row — whose owner-routed schedule is not that graph —
// has none.
func TestMakespanOnlyOnSwapSchedule(t *testing.T) {
	for _, tc := range []struct {
		method string
		want   bool
	}{{"dfb", false}, {"bs", true}} {
		row, _, err := RunWithImage(smallCfg(tc.method, 3))
		if err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		if got := row.MakespanMS != 0; got != tc.want {
			t.Errorf("%s P=3: makespan %.3f ms, want one: %v", tc.method, row.MakespanMS, tc.want)
		}
	}
}

func TestRunDetailedExposesRankStats(t *testing.T) {
	row, _, rs, err := run(smallCfg("bsbrc", 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("rank stats = %d", len(rs))
	}
	totalRecv := 0
	for r, s := range rs {
		if s == nil {
			t.Fatalf("rank %d stats missing", r)
		}
		totalRecv += s.BytesReceived()
	}
	if row.MakespanMS <= 0 {
		t.Error("makespan must be positive")
	}
	if row.MakespanMS+1e-9 < row.CompMS {
		t.Errorf("makespan %.3f below max comp %.3f", row.MakespanMS, row.CompMS)
	}
	// Row.RenderImbalance is max ÷ mean of the per-rank sample counts: a
	// centred cube splits evenly over four ranks, and at P=3 the unsplit
	// core rank renders twice what each half of the folded pair does.
	cube := Config{
		Dataset: "cube", Volume: volume.SolidCube(32, 32, 16), TF: transfer.Cube(),
		Width: 64, Height: 64, Method: "bsbrc",
	}
	for _, tc := range []struct {
		p      int
		lo, hi float64
	}{{4, 1, 1.05}, {3, 1.3, 3}} {
		cube.P = tc.p
		row, _, err := RunWithImage(cube)
		if err != nil {
			t.Fatal(err)
		}
		if row.RenderImbalance < tc.lo || row.RenderImbalance > tc.hi {
			t.Errorf("cube P=%d: render imbalance %.3f outside [%g, %g]", tc.p, row.RenderImbalance, tc.lo, tc.hi)
		}
	}
}

func TestDatasetHelper(t *testing.T) {
	v, tf, err := Dataset("cube")
	if err != nil || v == nil || tf == nil {
		t.Fatalf("Dataset: %v", err)
	}
	if _, _, err := Dataset("nope"); err == nil {
		t.Error("unknown dataset must error")
	}
}
