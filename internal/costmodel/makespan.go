package costmodel

import (
	"time"

	"sortlast/internal/stats"
)

// Makespan evaluates the binary-swap schedule as a dependency graph
// instead of summing per-rank costs: at stage k a rank can composite
// only after its own encode/pack work is done AND its partner's stage-k
// message has arrived, so a slow partner stalls the pair. The paper's
// per-processor sums (Eq. 1–8, what Rank/World compute) ignore this
// coupling; Makespan reports the resulting completion time, which is
// what a wall clock would show on a real machine. Only the swap-family
// stage structure is modeled; ranks whose counters lack swap stages are
// folded in by their fold pre-stage when present.
func (p Params) Makespan(ranks []*stats.Rank) time.Duration {
	n := len(ranks)
	if n == 0 {
		return 0
	}
	// ready[r] is rank r's virtual time.
	ready := make([]time.Duration, n)
	for r, rk := range ranks {
		if rk == nil {
			continue
		}
		ready[r] = time.Duration(rk.BoundScan) * p.Tbound
	}

	// Fold: extra rank Core+i sends its whole subimage to core rank i,
	// composited before the swap stages (the pairing of
	// partition.Decomposition.FoldPartner). Core is the rank count less
	// the ranks that sent a fold message.
	core := n
	for _, rk := range ranks {
		if rk != nil && rk.Fold.MsgsSent > 0 {
			core--
		}
	}
	for r := 0; r < core; r++ {
		rk := ranks[r]
		if rk == nil || rk.Fold.MsgsRecv == 0 {
			continue
		}
		arrive := ready[r]
		if e := core + r; e < n && ranks[e] != nil {
			ek := ranks[e]
			t := ready[e] + time.Duration(ek.Fold.Encoded)*p.Tencode +
				p.Ts + time.Duration(ek.Fold.BytesSent)*p.Tc
			if t > arrive {
				arrive = t
			}
		}
		ready[r] = arrive + time.Duration(rk.Fold.Composited)*p.To
	}

	stages := 0
	for _, rk := range ranks {
		if rk != nil && len(rk.Stages) > stages {
			stages = len(rk.Stages)
		}
	}
	for k := 0; k < stages; k++ {
		next := make([]time.Duration, n)
		copy(next, ready)
		for r, rk := range ranks {
			if rk == nil || k >= len(rk.Stages) {
				continue
			}
			partner := r ^ (1 << k)
			if partner >= n || ranks[partner] == nil || k >= len(ranks[partner].Stages) {
				continue
			}
			mine := &rk.Stages[k]
			theirs := &ranks[partner].Stages[k]
			sendDone := ready[r] + time.Duration(mine.Encoded)*p.Tencode
			arrival := ready[partner] + time.Duration(theirs.Encoded)*p.Tencode +
				p.Ts + time.Duration(theirs.BytesSent)*p.Tc
			t := sendDone
			if arrival > t {
				t = arrival
			}
			// Compositing cost: the paper charges dense delivery for the
			// rectangle methods; reuse the per-method stage formula.
			next[r] = t + p.stageComp(rk.Method, mine) -
				time.Duration(mine.Encoded)*p.Tencode
		}
		ready = next
	}
	var max time.Duration
	for _, t := range ready {
		if t > max {
			max = t
		}
	}
	return max
}
