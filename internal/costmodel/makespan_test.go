package costmodel

import (
	"testing"
	"time"

	"sortlast/internal/stats"
)

func swapRank(id int, encodedPerStage, bytesPerStage, compositedPerStage int, stages int) *stats.Rank {
	r := &stats.Rank{RankID: id, Method: "BSBRC"}
	for k := 1; k <= stages; k++ {
		s := r.StageAt(k)
		s.Encoded = encodedPerStage
		s.BytesSent = bytesPerStage
		s.BytesRecv = bytesPerStage
		s.Composited = compositedPerStage
		s.MsgsSent, s.MsgsRecv = 1, 1
	}
	return r
}

func TestMakespanSymmetricWorld(t *testing.T) {
	p := params()
	ranks := []*stats.Rank{
		swapRank(0, 100, 1600, 50, 1),
		swapRank(1, 100, 1600, 50, 1),
	}
	got := p.Makespan(ranks)
	// Both ranks identical: makespan = encode + (Ts + bytes) + composite.
	want := 100*p.Tencode + p.Ts + 1600*p.Tc + 50*p.To
	if got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestMakespanStalledBySlowPartner(t *testing.T) {
	p := params()
	fast := swapRank(0, 10, 160, 5, 1)
	slow := swapRank(1, 10000, 160, 5, 1) // huge encode phase
	got := p.Makespan([]*stats.Rank{fast, slow})
	// The fast rank waits for the slow one's message; completion is
	// bounded below by the slow encode.
	lower := 10000 * p.Tencode
	if got <= lower {
		t.Errorf("makespan %v must exceed the slow partner's encode %v", got, lower)
	}
	// And the naive per-rank sum under-reports the fast rank's wait.
	naive := p.rank(fast)
	if naive.Total() >= got {
		t.Errorf("naive fast-rank total %v should be below the coupled makespan %v",
			naive.Total(), got)
	}
}

func TestMakespanMultiStagePropagatesDelay(t *testing.T) {
	p := params()
	// Four ranks, two stages. Rank 3 is slow in stage 1; by stage 2 the
	// delay must have propagated to its stage-2 partner's pair as well.
	ranks := []*stats.Rank{
		swapRank(0, 10, 160, 5, 2),
		swapRank(1, 10, 160, 5, 2),
		swapRank(2, 10, 160, 5, 2),
		swapRank(3, 10, 160, 5, 2),
	}
	base := p.Makespan(ranks)
	ranks[3].Stages[0].Encoded = 20000
	delayed := p.Makespan(ranks)
	if delayed <= base {
		t.Errorf("delay did not propagate: %v vs %v", delayed, base)
	}
	// Rank 3's stage-1 partner is 2; at stage 2 rank 2 pairs with 0, so
	// everyone completes late.
	if delayed < 20000*p.Tencode {
		t.Errorf("makespan %v below the slow encode", delayed)
	}
}

func TestMakespanAtLeastPerRankComm(t *testing.T) {
	// The makespan can never be below any rank's own serialized cost.
	p := params()
	ranks := make([]*stats.Rank, 8) // 8 ranks <=> 3 swap stages
	for i := range ranks {
		ranks[i] = swapRank(i, 200+100*i, 6000+1000*i, 100+50*i, 3)
	}
	mk := p.Makespan(ranks)
	for _, r := range ranks {
		if c := p.rank(r); mk < c.Comp {
			t.Errorf("makespan %v below rank %d's compute %v", mk, r.RankID, c.Comp)
		}
	}
}

// TestMakespanFoldPairsByRank: at P = 6 core rank i receives the fold of
// extra rank 4+i (partition.Decomposition's FoldPartner pairing). Extras 4 and 5 ship the
// same number of bytes and only extra 4 is late, so core 1 — waiting
// only for extra 5 — must not be charged extra 4's arrival, as a
// partner matched by byte count was.
func TestMakespanFoldPairsByRank(t *testing.T) {
	p := params()
	ranks := make([]*stats.Rank, 6)
	for i := range ranks {
		ranks[i] = &stats.Rank{RankID: i, Method: "BSBRC"}
	}
	for i := 0; i < 2; i++ {
		ranks[i].Fold = stats.Stage{MsgsRecv: 1, BytesRecv: 100}
		ranks[4+i].Fold = stats.Stage{MsgsSent: 1, BytesSent: 100}
	}
	ranks[4].BoundScan = 1_000_000       // extra 4 sends 10 ms late
	ranks[1].Fold.Composited = 2_000_000 // core 1 composites for 2 s
	arrive := p.Ts + 100*p.Tc
	want := arrive + 2_000_000*p.To // core 1, fed on time by extra 5
	if got := p.Makespan(ranks); got != want {
		t.Errorf("makespan = %v, want %v (core 1 charged another extra's arrival?)", got, want)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if d := params().Makespan(nil); d != 0 {
		t.Errorf("empty makespan = %v", d)
	}
	if d := params().Makespan([]*stats.Rank{nil, nil}); d != 0 {
		t.Errorf("nil ranks makespan = %v", d)
	}
}

func TestMakespanBoundScanIncluded(t *testing.T) {
	p := params()
	r := &stats.Rank{RankID: 0, Method: "BSBR", BoundScan: 10000}
	if d := p.Makespan([]*stats.Rank{r}); d != 10000*p.Tbound {
		t.Errorf("makespan = %v, want bound scan only", d)
	}
	_ = time.Duration(0)
}
