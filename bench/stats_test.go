package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	if p := percentile(xs, 0.90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	if p := percentile(xs, 0.50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// The tail percentile must leave at least ten samples beyond it in every
// chunk the workloads use at the recorded run length; a higher one must
// not.
func TestTailPercentileRule(t *testing.T) {
	if got := samplesBeyond(100, tailQ); got != 10 {
		t.Errorf("samplesBeyond(100, %.2f) = %d, want 10", tailQ, got)
	}
	if got := samplesBeyond(100, 0.95); got >= minBeyond {
		t.Errorf("p95 of 100 samples leaves %d beyond, so p90 is not the highest reportable", got)
	}
	for _, s := range specs {
		pl := s.plan(defaultSeconds)
		if got := samplesBeyond(pl.chunk, tailQ); got < minBeyond {
			t.Errorf("%s: chunk of %d leaves %d samples beyond p%.0f, want ≥ %d",
				s.name, pl.chunk, got, tailQ*100, minBeyond)
		}
		if pl.chunks < 3 || pl.chunks > 8 {
			t.Errorf("%s: %d chunks, want 3..8", s.name, pl.chunks)
		}
		if pl.chunk%s.slice != 0 || pl.warm%s.slice != 0 {
			t.Errorf("%s: chunk %d / warm-up %d not a multiple of %d", s.name, pl.chunk, pl.warm, s.slice)
		}
		if pl.warm*20 < pl.chunks*pl.chunk {
			t.Errorf("%s: warm-up %d is under 5%% of %d frames", s.name, pl.warm, pl.chunks*pl.chunk)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if !near(q1, 3.5) || !near(q2, 13.5) || !near(q3, 31) {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// >>> statistics.quantiles([10, 20, 30, 40, 50], n=4)
	// [15.0, 30.0, 45.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if !near(q1, 15) || !near(q2, 30) || !near(q3, 45) {
		t.Errorf("quartiles = %v %v %v, want 15 30 45", q1, q2, q3)
	}
}

func TestSpreadAndChunkMedian(t *testing.T) {
	if s := spread([]float64{10, 20, 30, 40, 50}); !near(s, 1) {
		t.Errorf("spread = %v, want (45-15)/30 = 1", s)
	}
	// One chunk spoiled by a neighbour moves the spread, not the value.
	v, s := chunkMedian([]float64{10, 10, 10, 10, 10, 10, 10, 40})
	if v != 10 {
		t.Errorf("chunk median = %v, want 10", v)
	}
	if s != 0 {
		t.Errorf("one outlier in eight gave spread %v, want 0", s)
	}
	if _, s := chunkMedian([]float64{10, 10, 40, 40, 40, 10, 10, 40}); s == 0 {
		t.Error("half the chunks spoiled should show as spread")
	}
}

func TestLayerBudgetFollowsTheBlockingPath(t *testing.T) {
	spans := []span{
		{Name: "bench.frame", Start: 0, End: 100, Parent: -1, Rank: -1},
		{Name: "harness.newplan", Start: 5, End: 15, Parent: 0, Rank: -1},
		{Name: "mp.world", Start: 20, End: 95, Parent: 0, Rank: -1},
		// Rank 0 renders fast, then waits for rank 1 inside its gather.
		{Name: "render.raycast", Start: 25, End: 60, Parent: 2, Rank: 0},
		{Name: "core.composite", Start: 60, End: 70, Parent: 2, Rank: 0},
		{Name: "core.gather", Start: 70, End: 92, Parent: 2, Rank: 0},
		{Name: "render.raycast", Start: 22, End: 80, Parent: 2, Rank: 1}, // scheduled first
		{Name: "core.composite", Start: 80, End: 90, Parent: 2, Rank: 1},
		{Name: "core.gather", Start: 90, End: 91, Parent: 2, Rank: 1},
	}
	// Self time as recorded: a span minus what its caller-track and
	// rank-0 children cover.
	self := selfTimes(spans)
	for i, want := range []int64{15, 10, 8, 35, 10, 22} {
		if self[i] != want {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	// The budget charges rank 0's wait to the phase the slowest rank was
	// still in: rendering lasts until 80, compositing until 90, and the
	// gather is the 2 that remain; rendering began when rank 1 did.
	share, unattributed := layerBudget(spans)
	want := map[string]float64{"render": 0.58, "core": 0.12, "mp": 0.05, "harness": 0.10, "bench": 0.15}
	var sum float64
	for l, w := range want {
		if !near(share[l], w) {
			t.Errorf("share[%s] = %v, want %v", l, share[l], w)
		}
		sum += share[l]
	}
	if !near(sum, 1) {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if len(unattributed) != 1 || unattributed[0] != 15 {
		t.Errorf("unattributed = %v, want [15]", unattributed)
	}
	if spans[5].Start != 70 {
		t.Error("layerBudget changed the recorded spans")
	}
}
