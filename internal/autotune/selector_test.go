package autotune

import (
	"testing"
	"time"

	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/stats"
)

// Golden selections on synthetic feature vectors, SP2 parameters. These
// pin the crossover structure of the paper's figures: dense frames
// favor plain binary swap (compression buys nothing and encoding
// costs), dense-within-rectangle frames favor BSBR (clipping without
// encoding), sparse frames favor BSBRC.
func TestChooseGolden(t *testing.T) {
	sel := NewSelector(costmodel.SP2(), TransportMP)
	cases := []struct {
		name string
		f    Features
		want string
	}{
		{"dense frame", Features{Width: 384, Height: 384, P: 8, Alpha: 1, Beta: 1, Runs: 1}, "bs"},
		{"dense rectangle", Features{Width: 384, Height: 384, P: 8, Alpha: 0.5, Beta: 0.5, Runs: 1}, "bsbr"},
		{"sparse frame", Features{Width: 384, Height: 384, P: 8, Alpha: 0.03, Beta: 0.15, Runs: 4}, "bsbrc"},
		{"sparse, large P", Features{Width: 768, Height: 768, P: 64, Alpha: 0.05, Beta: 0.25, Runs: 6}, "bsbrc"},
	}
	for _, tc := range cases {
		ch, err := sel.Choose(tc.f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ch.Method != tc.want {
			t.Errorf("%s: chose %q, want %q (ranking %+v)", tc.name, ch.Method, tc.want, ch.Predictions)
		}
		if len(ch.Predictions) != len(Candidates()) {
			t.Errorf("%s: %d predictions, want %d", tc.name, len(ch.Predictions), len(Candidates()))
		}
		for i := 1; i < len(ch.Predictions); i++ {
			if ch.Predictions[i].Score < ch.Predictions[i-1].Score {
				t.Errorf("%s: predictions not sorted ascending", tc.name)
			}
		}
	}
}

// A selector fed alternating dense and sparse frames must switch
// methods — the adaptivity the acceptance criteria require.
func TestChooseSwitchesOnMixedAnimation(t *testing.T) {
	sel := NewSelector(costmodel.SP2(), TransportMP)
	dense := Features{Width: 384, Height: 384, P: 8, Alpha: 0.95, Beta: 1, Runs: 1}
	sparse := Features{Width: 384, Height: 384, P: 8, Alpha: 0.04, Beta: 0.2, Runs: 3}
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		f := dense
		if i%2 == 1 {
			f = sparse
		}
		ch, err := sel.Choose(f)
		if err != nil {
			t.Fatal(err)
		}
		seen[ch.Method] = true
	}
	if len(seen) < 2 {
		t.Fatalf("selector never switched methods across mixed frames: %v", seen)
	}
}

// EWMA correction: when the chosen method measures far slower than
// modeled, its factor rises and the argmin flips to the runner-up.
func TestObserveEWMACorrection(t *testing.T) {
	sel := NewSelector(costmodel.SP2(), TransportMP)
	f := Features{Width: 384, Height: 384, P: 8, Alpha: 0.03, Beta: 0.15, Runs: 4}
	first, err := sel.Choose(f)
	if err != nil {
		t.Fatal(err)
	}
	if first.Method != "bsbrc" {
		t.Fatalf("precondition: sparse frame should choose bsbrc, got %q", first.Method)
	}
	// Feed measurements 50x over model prediction for bsbrc.
	pred, err := Predict(sel.Params(), "bsbrc", f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sel.Observe("bsbrc", f, time.Duration(50*float64(pred.Total())))
	}
	snap := sel.Snapshot()
	if snap.Factors["bsbrc"] <= 1 {
		t.Fatalf("factor did not rise: %v", snap.Factors)
	}
	after, err := sel.Choose(f)
	if err != nil {
		t.Fatal(err)
	}
	if after.Method == "bsbrc" {
		t.Fatalf("selection did not self-correct away from mispredicted method (factors %v)", snap.Factors)
	}
}

func TestObserveClampsAndIgnoresUnknown(t *testing.T) {
	sel := NewSelector(costmodel.SP2(), TransportMP)
	f := Features{Width: 128, Height: 128, P: 4, Alpha: 0.5, Beta: 0.6, Runs: 2}
	for i := 0; i < 100; i++ {
		sel.Observe("bs", f, time.Hour)
	}
	if got := sel.Snapshot().Factors["bs"]; got > maxFactor {
		t.Fatalf("factor %v exceeds clamp %v", got, maxFactor)
	}
	sel.Observe("direct", f, time.Second) // not a candidate: ignored
	if _, ok := sel.Snapshot().Factors["direct"]; ok {
		t.Fatal("non-candidate method grew a factor")
	}
}

func TestScanFeatures(t *testing.T) {
	img := frame.NewImage(100, 100)
	// A 20x20 solid block at (10,10): alpha 4%, beta 4%, one run on each
	// of 20 of 100 scanlines.
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			img.Set(x, y, frame.Pixel{I: 0.5, A: 0.5})
		}
	}
	f := ScanFeatures(img, 4)
	if f.Width != 100 || f.Height != 100 || f.P != 4 {
		t.Fatalf("geometry: %+v", f)
	}
	if f.Alpha < 0.039 || f.Alpha > 0.041 {
		t.Errorf("alpha = %v, want 0.04", f.Alpha)
	}
	if f.Beta < 0.039 || f.Beta > 0.041 {
		t.Errorf("beta = %v, want 0.04", f.Beta)
	}
	if f.Runs < 0.19 || f.Runs > 0.21 {
		t.Errorf("runs = %v, want 0.2", f.Runs)
	}
}

func TestStatsFeaturesRectMethod(t *testing.T) {
	// P=2, one stage: the rank received a rectangle of 1000 pixels of
	// which 250 were non-blank, and 80 codes shipped.
	r := &stats.Rank{Method: "BSBRC"}
	s := r.StageAt(1)
	s.RecvPixels = 1000
	s.Composited = 250
	s.Codes = 80
	prev := Features{Width: 100, Height: 100, P: 2, Alpha: 0.5, Beta: 0.5, Runs: 1}
	f := StatsFeatures(prev, 100, 100, 2, "bsbrc", []*stats.Rank{r})
	// Dense delivery for P=2 is A(P-1) = 10000 pixels: beta = 0.1,
	// density inside the rect 0.25 -> alpha = 0.025.
	if f.Beta < 0.099 || f.Beta > 0.101 {
		t.Errorf("beta = %v, want 0.1", f.Beta)
	}
	if f.Alpha < 0.024 || f.Alpha > 0.026 {
		t.Errorf("alpha = %v, want 0.025", f.Alpha)
	}
	if f.Runs <= 0 {
		t.Errorf("runs = %v, want positive", f.Runs)
	}
}

func TestStatsFeaturesCarriesUnobserved(t *testing.T) {
	// BS observes no rectangle and no codes: beta and runs carry over.
	r := &stats.Rank{Method: "BS"}
	s := r.StageAt(1)
	s.RecvPixels = 5000
	s.Composited = 4000
	prev := Features{Width: 100, Height: 100, P: 2, Alpha: 0.5, Beta: 0.33, Runs: 2.5}
	f := StatsFeatures(prev, 100, 100, 2, "bs", []*stats.Rank{r})
	if f.Beta != 0.33 || f.Runs != 2.5 {
		t.Errorf("unobserved components not carried: %+v", f)
	}
	if f.Alpha != 0.8 {
		t.Errorf("alpha = %v, want 0.8", f.Alpha)
	}
}

func TestPredictRejectsInvalid(t *testing.T) {
	if _, err := Predict(costmodel.SP2(), "bs", Features{}); err == nil {
		t.Fatal("empty features must error")
	}
	f := Features{Width: 10, Height: 10, P: 2, Alpha: 0.5, Beta: 0.5}
	if _, err := Predict(costmodel.SP2(), "nope", f); err == nil {
		t.Fatal("unknown method must error")
	}
}

// Correction factors are learned per (method, quality contract): preview
// frames are a quarter of the pixels, so their measured/predicted ratio
// must not contaminate the full-quality row, and vice versa. The full
// contract keeps the bare-method key so pre-quality state carries over.
func TestObserveKeysFactorsByQuality(t *testing.T) {
	sel := NewSelector(costmodel.SP2(), TransportMP)
	f := Features{Width: 384, Height: 384, P: 8, Alpha: 0.04, Beta: 0.2, Runs: 3}
	ch, err := sel.Choose(f)
	if err != nil {
		t.Fatal(err)
	}
	predicted := ch.Predictions[0].Score

	// A preview observation twice as fast as predicted must only move
	// the "@preview" row.
	fp := f
	fp.Quality = "preview"
	sel.Observe(ch.Method, fp, predicted/2)
	snap := sel.Snapshot()
	if v := snap.Factors[ch.Method]; v != 1 {
		t.Errorf("full-quality factor moved to %g after a preview observation", v)
	}
	if v := snap.Factors[ch.Method+"@preview"]; v >= 1 {
		t.Errorf("preview factor = %g after a fast preview observation, want < 1", v)
	}

	// A slow full observation moves the bare row and leaves preview alone.
	before := snap.Factors[ch.Method+"@preview"]
	sel.Observe(ch.Method, f, predicted*2)
	snap = sel.Snapshot()
	if v := snap.Factors[ch.Method]; v <= 1 {
		t.Errorf("full factor = %g after a slow full observation, want > 1", v)
	}
	if v := snap.Factors[ch.Method+"@preview"]; v != before {
		t.Errorf("preview factor moved from %g to %g on a full observation", before, v)
	}

	// The explicit "full" name is the bare row, not a separate one.
	ff := f
	ff.Quality = "full"
	sel.Observe(ch.Method, ff, predicted*2)
	if v := sel.Snapshot().Factors[ch.Method+"@full"]; v != 0 {
		t.Errorf("quality=full grew its own %q row", ch.Method+"@full")
	}

	// ChooseForQuality stamps the contract into the features it ranks
	// with, so the learned per-quality factor feeds back into choice.
	sel.Seed(f)
	ch2, seeded, err := sel.ChooseForQuality(384, 384, 8, "preview")
	if err != nil || !seeded {
		t.Fatalf("ChooseForQuality: seeded=%v err=%v", seeded, err)
	}
	if ch2.Method == "" {
		t.Fatal("ChooseForQuality returned no method")
	}
}
