package fleet

import "math"

// Routing: every request is scored against the replica set and sent to
// the cheapest one. The score is the replica's outstanding request
// count (least outstanding work — the classic join-shortest-queue
// heuristic, which tracks real capacity differences between
// heterogeneous replicas better than round-robin), plus a large penalty
// for replicas that recently failed a dispatch or whose world is being
// rebuilt. Nothing in the score depends on the camera: a replica holds
// no per-camera state (the plan is built per request, datasets and
// arenas are process-wide), and a repeat camera is a frame-cache hit
// before routing is reached (EXPERIMENTS "Feature census III").

const (
	// suspectPenalty pushes a replica that recently failed a dispatch to
	// the back of the pick order without excluding it: when every other
	// replica is down too, a suspect replica is still tried.
	suspectPenalty = 1e3

	// degradedPenalty pushes a replica whose world is mid-rebuild behind
	// healthy ones (its admission queue would hold the request until the
	// world returns) but ahead of suspects (it is known to be coming
	// back).
	degradedPenalty = 1e2
)

// pickCandidate describes one replica to the pure scorer.
type pickCandidate struct {
	// Outstanding is the replica's in-flight dispatch count.
	Outstanding int
	// Penalty deprioritizes the replica (suspect, degraded) without
	// excluding it.
	Penalty float64
	// Excluded removes the replica from consideration entirely (it was
	// already tried for this request).
	Excluded bool
}

// pickReplica returns the index of the lowest-scoring candidate, or -1
// when every candidate is excluded. Ties break to the lowest index,
// deterministically.
func pickReplica(cands []pickCandidate) int {
	best := -1
	bestScore := math.Inf(1)
	for i, c := range cands {
		if c.Excluded {
			continue
		}
		if score := float64(c.Outstanding) + c.Penalty; score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
