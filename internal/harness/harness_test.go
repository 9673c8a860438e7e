package harness

import (
	"testing"

	"sortlast/internal/core"
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
		row, err := Run(smallCfg(m, 4))
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
		row, err := Run(smallCfg("bsbrc", p))
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

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Dataset: "nope", Width: 32, Height: 32, P: 2, Method: "bs"},
		{Dataset: "cube", Width: 0, Height: 32, P: 2, Method: "bs"},
		{Dataset: "cube", Width: 32, Height: 32, P: 0, Method: "bs"},
		{Dataset: "cube", Width: 32, Height: 32, P: 2, Method: "wat"},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
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

func TestBSLCGranularityKnob(t *testing.T) {
	cfg := smallCfg("bslc", 4)
	cfg.Granularity = 16
	row, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.NonBlank == 0 {
		t.Error("blank image with custom granularity")
	}
}

func TestPowersOfTwoAndIsPow2(t *testing.T) {
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
	if !IsPow2(8) || IsPow2(6) || IsPow2(0) {
		t.Error("IsPow2 wrong")
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
	row, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.EmptyRects == 0 {
		t.Error("cube at P=8 must produce empty receiving rectangles")
	}
}

func TestBalanceRenderStillCorrect(t *testing.T) {
	// A skewed volume: nearly all content in one corner.
	vol := volume.New(32, 32, 16)
	vol.Fill(volume.Box{Lo: [3]int{1, 1, 1}, Hi: [3]int{9, 9, 9}}, 150)
	base := Config{
		Dataset: "cube", Volume: vol, TF: transfer.Cube(),
		Width: 64, Height: 64, P: 8, Method: "bsbrc",
	}
	base.RenderOpts.EarlyTermination = -1
	_, ref, err := RunWithImage(base)
	if err != nil {
		t.Fatal(err)
	}
	bal := base
	bal.BalanceRender = true
	_, img, err := RunWithImage(bal)
	if err != nil {
		t.Fatal(err)
	}
	// Different partitions regroup floating-point accumulation, so the
	// images agree to tolerance, not bitwise.
	if d := ref.MaxAbsDiff(img, ref.Full()); d > 1e-9 {
		t.Errorf("balanced-partition image differs by %g", d)
	}
}

func TestBalanceRenderRequiresPow2(t *testing.T) {
	cfg := smallCfg("bsbrc", 3)
	cfg.BalanceRender = true
	if _, err := Run(cfg); err == nil {
		t.Error("BalanceRender at P=3 must error")
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
			row, err := Run(cfg)
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

func TestRunDetailedExposesRankStats(t *testing.T) {
	row, rs, err := RunDetailed(smallCfg("bsbrc", 4))
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
