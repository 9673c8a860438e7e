package fleet

import (
	"strconv"

	"sortlast/internal/obs"
)

// metrics is the gateway's observability surface: the handles of the
// families it registers with obs — cache effectiveness, hedging
// activity, cross-replica retries and the request latency — which the
// sidecar serves on /metrics together with the per-replica and cache
// gauges sampled at scrape time.
type metrics struct {
	reg *obs.Registry

	requests   *obs.Counter // requests accepted (any outcome)
	errored    *obs.Counter // requests answered with a typed error
	cache      *obs.Counter // cache lookups per outcome (hit, miss)
	cacheEvict *obs.Counter
	hedges     *obs.Counter // hedged dispatches issued
	hedgeWins  *obs.Counter // requests won by the hedge, not the primary
	retries    *obs.Counter // cross-replica retries after a failed dispatch

	latency *obs.Histogram
}

var fleetLatencyBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// newFleetMetrics registers the gateway's families in export order. g
// must already hold its replicas, cache and flight recorder: the
// per-replica families take one series per replica, and a nil flight
// (tracing disabled) leaves its gauge out.
func newFleetMetrics(g *Gateway) *metrics {
	r := new(obs.Registry)
	m := &metrics{reg: r}
	m.requests = r.Counter("fleet_requests_total", "Requests accepted by the gateway.", obs.None)
	m.errored = r.Counter("fleet_request_errors_total", "Requests answered with a typed error.", obs.None)
	m.cache = r.Counter("fleet_cache_requests_total", "Frame cache lookups, by outcome.", obs.Label("outcome", "hit", "miss"))
	m.cacheEvict = r.Counter("fleet_cache_evictions_total", "Cache entries evicted under the byte budget.", obs.None)
	obs.GaugeFunc(r, "fleet_cache_bytes", "Bytes held by the frame cache.", obs.None, func(int) int64 { b, _ := g.cacheSize(); return b })
	obs.GaugeFunc(r, "fleet_cache_entries", "Entries held by the frame cache.", obs.None, func(int) int { _, n := g.cacheSize(); return n })
	m.hedges = r.Counter("fleet_hedges_total", "Hedged dispatches issued after a request exceeded its replica's rolling p99.", obs.None)
	m.hedgeWins = r.Counter("fleet_hedge_wins_total", "Requests whose hedge replied before the primary dispatch.", obs.None)
	m.retries = r.Counter("fleet_retries_total", "Cross-replica retries after a retryable dispatch failure.", obs.None)

	ids := make([]string, len(g.replicas))
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	perReplica := obs.Label("replica", ids...)
	obs.CounterFunc(r, "fleet_replica_frames_total", "Successful dispatches per replica.", perReplica, func(i int) int64 { return g.replicas[i].frames.Load() })
	obs.CounterFunc(r, "fleet_replica_errors_total", "Failed dispatches per replica.", perReplica, func(i int) int64 { return g.replicas[i].errs.Load() })
	obs.GaugeFunc(r, "fleet_replica_outstanding", "In-flight dispatches per replica.", perReplica, func(i int) int64 { return g.replicas[i].outstanding.Load() })
	obs.GaugeFunc(r, "fleet_replica_p99_seconds", "Rolling-window p99 dispatch latency per replica (hedge threshold).", perReplica, func(i int) float64 { return g.replicas[i].p99MS() / 1e3 })
	obs.GaugeFunc(r, "fleet_replica_degraded", "Whether the replica's world is down and rebuilding (in-process replicas).", perReplica, func(i int) int {
		if g.replicas[i].degraded() {
			return 1
		}
		return 0
	})
	obs.CounterFunc(r, "fleet_replica_world_restarts_total", "World restarts per in-process replica.", perReplica, func(i int) int64 { return g.replicas[i].restarts() })

	m.latency = r.Histogram("fleet_request_latency_seconds", "Gateway-side request latency (cache hits included).", fleetLatencyBuckets, obs.None)
	if g.flight != nil {
		obs.GaugeFunc(r, "fleet_flight_entries", "Requests retained by the flight recorder at /debug/flight.", obs.None, func(int) int { return g.flight.Len() })
	}
	return m
}

// ReplicaStats is one replica's slice of a Stats snapshot.
type ReplicaStats struct {
	// Frames counts successful dispatches served by this replica.
	Frames int64
	// Errors counts failed dispatches to this replica.
	Errors int64
	// HedgeWins counts requests this replica won as the hedge target.
	HedgeWins int64
	// Outstanding is the replica's current in-flight dispatch count.
	Outstanding int64
	// WorldRestarts is the replica's supervisor restart count
	// (in-process replicas only).
	WorldRestarts int64
}

// Stats is a point-in-time snapshot of the gateway, for load harnesses
// and tests (the HTTP sidecar exposes the same numbers as /metrics).
type Stats struct {
	Requests       int64
	Errors         int64
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheBytes     int64
	CacheEntries   int
	HedgesIssued   int64
	HedgeWins      int64
	Retries        int64
	Replicas       []ReplicaStats
}

// Stats returns a snapshot of the gateway's counters and per-replica
// state.
func (g *Gateway) Stats() Stats {
	s := Stats{
		Requests:       g.met.requests.Load(),
		Errors:         g.met.errored.Load(),
		CacheHits:      g.met.cache.Load("hit"),
		CacheMisses:    g.met.cache.Load("miss"),
		CacheEvictions: g.met.cacheEvict.Load(),
		HedgesIssued:   g.met.hedges.Load(),
		HedgeWins:      g.met.hedgeWins.Load(),
		Retries:        g.met.retries.Load(),
	}
	s.CacheBytes, s.CacheEntries = g.cacheSize()
	for _, r := range g.replicas {
		s.Replicas = append(s.Replicas, ReplicaStats{
			Frames:        r.frames.Load(),
			Errors:        r.errs.Load(),
			HedgeWins:     r.hedgesWon.Load(),
			Outstanding:   r.outstanding.Load(),
			WorldRestarts: r.restarts(),
		})
	}
	return s
}

// cacheSize reads the frame cache's footprint, zeros when disabled.
func (g *Gateway) cacheSize() (bytes int64, entries int) {
	if g.cache == nil {
		return 0, 0
	}
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	return g.cache.sizeBytes(), g.cache.entries()
}
