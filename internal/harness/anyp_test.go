package harness

import "testing"

// The tile-routed methods accumulate in global depth order at any P and
// must reproduce the sequential composite bit-for-bit, pow-2 or not.
func TestTileRoutedValidateAnyP(t *testing.T) {
	for _, m := range []string{"ds", "dfb"} {
		for _, p := range []int{2, 3, 4, 6, 8, 16} {
			cfg := smallCfg(m, p)
			cfg.Validate = true
			cfg.RenderOpts.EarlyTermination = -1
			row, _, err := RunWithImage(cfg)
			if err != nil {
				t.Fatalf("%s P=%d: %v", m, p, err)
			}
			if row.ValidateDiff != 0 {
				t.Errorf("%s P=%d: diff %g from sequential", m, p, row.ValidateDiff)
			}
			if row.NonBlank == 0 {
				t.Errorf("%s P=%d: blank final image", m, p)
			}
		}
	}
}

// At a non-power-of-two P the tile-routed image must match the folded
// binary-swap image exactly: same render, different routing.
func TestTileRoutedMatchesFoldedAtNonPow2(t *testing.T) {
	ref := smallCfg("bsbrc", 6)
	ref.RenderOpts.EarlyTermination = -1
	_, want, err := RunWithImage(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"ds", "dfb"} {
		cfg := smallCfg(m, 6)
		cfg.RenderOpts.EarlyTermination = -1
		row, img, err := RunWithImage(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if d := want.MaxAbsDiff(img, want.Full()); d != 0 {
			t.Errorf("%s image differs from folded bsbrc by %g", m, d)
		}
		if row.Method == "BSBRC+fold" {
			t.Errorf("%s ran folded; should run natively", m)
		}
	}
}
