package stats

import (
	"testing"
	"time"
)

func TestStageAtGrowsAndAliases(t *testing.T) {
	var r Rank
	s := r.StageAt(3)
	if len(r.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(r.Stages))
	}
	if r.Stages[0].Stage != 1 || r.Stages[2].Stage != 3 {
		t.Error("stage numbering wrong")
	}
	s.BytesRecv = 42
	if r.Stages[2].BytesRecv != 42 {
		t.Error("StageAt must return a pointer into the slice")
	}
	if r.StageAt(2) != &r.Stages[1] {
		t.Error("existing stage must not be reallocated")
	}
}

func TestRankAggregates(t *testing.T) {
	r := &Rank{}
	r.StageAt(1).BytesRecv = 100
	r.StageAt(1).BytesSent = 60
	r.StageAt(1).Composited = 5
	r.StageAt(2).BytesRecv = 50
	r.StageAt(2).BytesSent = 40
	r.StageAt(2).Composited = 7
	r.StageAt(2).RecvRectEmpty = true
	if r.BytesReceived() != 150 {
		t.Errorf("bytes: recv=%d", r.BytesReceived())
	}
	if r.TotalComposited() != 12 {
		t.Errorf("composited = %d", r.TotalComposited())
	}
	if r.EmptyRecvRects() != 1 {
		t.Errorf("empty rects = %d", r.EmptyRecvRects())
	}
}

func TestMaxMessageBytes(t *testing.T) {
	a, b := &Rank{}, &Rank{}
	a.StageAt(1).BytesRecv = 10
	b.StageAt(1).BytesRecv = 30
	b.StageAt(2).BytesRecv = 5
	if m := MaxMessageBytes([]*Rank{a, b}); m != 35 {
		t.Errorf("M_max = %d, want 35", m)
	}
	if m := MaxMessageBytes(nil); m != 0 {
		t.Errorf("empty M_max = %d", m)
	}
}

func TestMaxCompWall(t *testing.T) {
	a := &Rank{CompWall: 2 * time.Millisecond}
	b := &Rank{CompWall: 5 * time.Millisecond}
	if MaxCompWall([]*Rank{a, b}) != 5*time.Millisecond {
		t.Error("max wall wrong")
	}
}

func TestTimerAccumulates(t *testing.T) {
	var tm Timer
	tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop()
	first := tm.Total()
	if first <= 0 {
		t.Fatal("timer must accumulate positive time")
	}
	tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop()
	if tm.Total() <= first {
		t.Error("second section must add to the total")
	}
}
