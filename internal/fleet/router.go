package fleet

import (
	"math"
	"sync"
	"time"
)

// Routing: every request is scored against the replica set and sent to
// the cheapest one. The score is the replica's outstanding request
// count (least outstanding work — the classic join-shortest-queue
// heuristic, which tracks real capacity differences between
// heterogeneous replicas better than round-robin), plus a large penalty
// for replicas that recently failed a dispatch or whose world is being
// rebuilt, minus a small camera-affinity bonus so repeat cameras keep
// landing on the replica whose volume and scratch arenas are warm for
// them. The bonus decays with a half-life and is capped below one
// outstanding request, so affinity breaks ties but never outweighs real
// load imbalance.

const (
	// affinityBonus is the largest score reduction camera affinity can
	// produce. Strictly below 1 so a one-request load difference always
	// dominates affinity.
	affinityBonus = 0.9

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
// when every candidate is excluded. affinity (when >= 0) names the
// candidate holding the camera-affinity hint, whose score is reduced by
// affinityBonus·weight with weight clamped to [0, 1]. Ties break to the
// lowest index, deterministically.
func pickReplica(cands []pickCandidate, affinity int, affinityWeight float64) int {
	best := -1
	bestScore := math.Inf(1)
	for i, c := range cands {
		if c.Excluded {
			continue
		}
		score := float64(c.Outstanding) + c.Penalty
		if i == affinity {
			w := affinityWeight
			if w < 0 {
				w = 0
			} else if w > 1 {
				w = 1
			}
			score -= affinityBonus * w
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// affinityDecay is the weight of an affinity hint age old: 1 at zero
// age, halving every halfLife. Non-positive half-lives disable decay.
func affinityDecay(age, halfLife time.Duration) float64 {
	if halfLife <= 0 {
		return 1
	}
	if age < 0 {
		age = 0
	}
	return math.Exp2(-float64(age) / float64(halfLife))
}

// maxAffinityEntries bounds the affinity table. The table is a hint,
// not state: when it overflows the whole map is dropped and relearned,
// which costs at most one suboptimal pick per camera.
const maxAffinityEntries = 8192

// router holds the camera-affinity table. Replica outstanding counts
// and penalties live on the replicas themselves; the router only
// remembers which replica last served each quantized camera.
type router struct {
	halfLife time.Duration

	mu  sync.Mutex
	aff map[cacheKey]affEntry
}

type affEntry struct {
	replica int
	at      time.Time
}

func newRouter(halfLife time.Duration) *router {
	return &router{halfLife: halfLife, aff: make(map[cacheKey]affEntry)}
}

// affinity returns the replica that last served key and its decayed
// weight, or (-1, 0) when the camera is unknown.
func (r *router) affinity(key cacheKey, now time.Time) (int, float64) {
	r.mu.Lock()
	e, ok := r.aff[key]
	r.mu.Unlock()
	if !ok {
		return -1, 0
	}
	return e.replica, affinityDecay(now.Sub(e.at), r.halfLife)
}

// remember records that replica served key.
func (r *router) remember(key cacheKey, replica int, now time.Time) {
	r.mu.Lock()
	if len(r.aff) >= maxAffinityEntries {
		r.aff = make(map[cacheKey]affEntry)
	}
	r.aff[key] = affEntry{replica: replica, at: now}
	r.mu.Unlock()
}
