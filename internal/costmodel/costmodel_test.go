package costmodel

import (
	"testing"
	"time"

	"sortlast/internal/stats"
)

func params() Params {
	return Params{
		Ts:      100 * time.Microsecond,
		Tc:      10 * time.Nanosecond,
		To:      1 * time.Microsecond,
		Tencode: 100 * time.Nanosecond,
		Tbound:  10 * time.Nanosecond,
	}
}

func TestBSFormula(t *testing.T) {
	r := &stats.Rank{Method: "BS"}
	s := r.StageAt(1)
	s.RecvPixels = 1000
	s.Composited = 400 // must be ignored for BS
	s.BytesRecv = 16000
	s.MsgsRecv = 1
	c := params().rank(r)
	wantComp := 1000 * time.Microsecond
	if c.Comp != wantComp {
		t.Errorf("BS comp = %v, want %v (To x RecvPixels)", c.Comp, wantComp)
	}
	wantComm := 100*time.Microsecond + 16000*10*time.Nanosecond
	if c.Comm != wantComm {
		t.Errorf("BS comm = %v, want %v", c.Comm, wantComm)
	}
}

func TestBSLCFormula(t *testing.T) {
	r := &stats.Rank{Method: "BSLC"}
	s := r.StageAt(1)
	s.Encoded = 2000
	s.Composited = 300
	s.RecvPixels = 2000 // ignored for BSLC
	c := params().rank(r)
	want := 2000*100*time.Nanosecond + 300*time.Microsecond
	if c.Comp != want {
		t.Errorf("BSLC comp = %v, want %v", c.Comp, want)
	}
}

func TestBSBRCFormulaIncludesBoundScan(t *testing.T) {
	r := &stats.Rank{Method: "BSBRC", BoundScan: 10000}
	s := r.StageAt(1)
	s.Encoded = 500
	s.Composited = 200
	c := params().rank(r)
	want := 10000*10*time.Nanosecond + 500*100*time.Nanosecond + 200*time.Microsecond
	if c.Comp != want {
		t.Errorf("BSBRC comp = %v, want %v", c.Comp, want)
	}
}

func TestCommSkipsSilentStages(t *testing.T) {
	r := &stats.Rank{Method: "BSBR"}
	r.StageAt(1).MsgsRecv = 0 // no message, no Ts
	r.StageAt(2).MsgsRecv = 1
	c := params().rank(r)
	if c.Comm != 100*time.Microsecond {
		t.Errorf("comm = %v, want one Ts", c.Comm)
	}
}

// A folded BS rank keeps Eq. 1 on its swap stages, every received
// pixel, in the per-rank sum and in the makespan, while its fold
// pre-stage (rectRLE) is charged what it composited.
func TestFoldedBSFormula(t *testing.T) {
	r := &stats.Rank{Method: "BS+fold"}
	r.Fold.Composited = 50
	r.Fold.RecvPixels = 5000 // ignored: the fold stage is rectRLE
	for k := 1; k <= 2; k++ {
		s := r.StageAt(k)
		s.RecvPixels = 1000
		s.Composited = 400 // ignored for BS
	}
	want := (50 + 2*1000) * time.Microsecond
	if c := params().rank(r); c.Comp != want {
		t.Errorf("BS+fold comp = %v, want %v (To x fold Composited + To x ΣRecvPixels)", c.Comp, want)
	}
	pair := []*stats.Rank{{Method: "BS+fold"}, {Method: "BS+fold"}}
	for _, rk := range pair {
		s := rk.StageAt(1)
		s.RecvPixels, s.Composited = 1000, 400
	}
	if got, want := params().Makespan(pair), params().Ts+1000*time.Microsecond; got != want {
		t.Errorf("BS+fold makespan = %v, want %v (Ts + To x RecvPixels)", got, want)
	}
}

func TestFoldStageCounted(t *testing.T) {
	r := &stats.Rank{Method: "BSBRC"}
	r.Fold.MsgsRecv = 1
	r.Fold.BytesRecv = 100
	r.Fold.Composited = 10
	c := params().rank(r)
	if c.Comm == 0 || c.Comp == 0 {
		t.Error("fold stage must contribute to both comp and comm")
	}
}

func TestWorldTakesMaxima(t *testing.T) {
	a := &stats.Rank{Method: "BS"}
	a.StageAt(1).RecvPixels = 100
	a.StageAt(1).MsgsRecv = 1
	a.StageAt(1).BytesRecv = 1
	b := &stats.Rank{Method: "BS"}
	b.StageAt(1).RecvPixels = 10
	b.StageAt(1).MsgsRecv = 1
	b.StageAt(1).BytesRecv = 100000
	p := params()
	w := p.World([]*stats.Rank{a, b, nil})
	if w.Comp != p.rank(a).Comp {
		t.Error("world comp must be the slower rank's")
	}
	if w.Comm != p.rank(b).Comm {
		t.Error("world comm must be the slower rank's")
	}
	if w.Total() != w.Comp+w.Comm {
		t.Error("total must be comp+comm")
	}
}

func TestSP2PresetMagnitudes(t *testing.T) {
	p := SP2()
	// Sanity-check the calibration against Table 1's BS row at P=2,
	// 384x384: one stage, A/2 = 73728 pixels, 16 bytes each.
	r := &stats.Rank{Method: "BS"}
	s := r.StageAt(1)
	s.RecvPixels = 73728
	s.BytesRecv = 73728 * 16
	s.MsgsRecv = 1
	c := p.rank(r)
	compMS := float64(c.Comp) / 1e6
	commMS := float64(c.Comm) / 1e6
	// Paper: T_comp ~= 297.85 ms, T_comm ~= 29.25 ms.
	if compMS < 200 || compMS > 400 {
		t.Errorf("SP2 BS P=2 comp = %.1f ms, paper shows ~298 ms", compMS)
	}
	if commMS < 15 || commMS > 45 {
		t.Errorf("SP2 BS P=2 comm = %.1f ms, paper shows ~29 ms", commMS)
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Comp: time.Millisecond, Comm: 2 * time.Millisecond}
	if c.String() == "" {
		t.Error("String must be non-empty")
	}
}

// The gather is not a compositing stage: rank leaves its counters out,
// so the paper's tables stop at the last compositing stage.
func TestGatherTerm(t *testing.T) {
	for _, method := range []string{"BS", "BSBRC", "DFB"} {
		r := &stats.Rank{Method: method}
		r.StageAt(1).MsgsRecv = 1
		without := params().rank(r)
		r.Gather = stats.Stage{
			Encoded: 3000, Composited: 700, RecvPixels: 5000,
			MsgsRecv: 7, BytesRecv: 40000, MsgsSent: 1, BytesSent: 9000,
		}
		if got := params().rank(r); got != without {
			t.Errorf("%s: the gather moved the compositing cost %v -> %v", method, without, got)
		}
	}
}
