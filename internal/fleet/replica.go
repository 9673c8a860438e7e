package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/server"
)

// ReplicaConfig describes one world replica the gateway owns or fronts.
// Exactly one of Server and Addr must be set: a non-nil Server starts
// an in-process renderd (its own supervised world and P — replicas may
// be heterogeneous), while Addr attaches to a renderd already running
// elsewhere.
type ReplicaConfig struct {
	// Server configures an in-process replica. Its Addr defaults to a
	// loopback ephemeral port; the gateway dials it like any backend, so
	// the data path is identical for in-process and remote replicas.
	Server *server.Config
	// Addr attaches to an external renderd's frame-protocol address.
	Addr string
}

// poolConns sizes each replica's client connection pool: the most
// dispatches (hedges and retries included) one replica can have on
// sockets at once before a caller waits for a connection.
const poolConns = 64

// latWindowSize is the rolling latency window per replica. 64 samples
// keeps the p99 responsive to regime changes (a replica going slow
// because its world is rebuilding) while being wide enough that one
// outlier does not own the estimate.
const latWindowSize = 64

// latWindow is a fixed-size ring of recent request latencies with an
// on-demand p99.
type latWindow struct {
	mu   sync.Mutex
	buf  [latWindowSize]time.Duration
	n    int // valid samples, <= latWindowSize
	next int // ring write position
}

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % latWindowSize
	if w.n < latWindowSize {
		w.n++
	}
	w.mu.Unlock()
}

// p99 returns the window's 99th percentile and how many samples back
// it. With a 64-sample window this is the second-slowest latency.
func (w *latWindow) p99() (time.Duration, int) {
	w.mu.Lock()
	n := w.n
	var scratch [latWindowSize]time.Duration
	copy(scratch[:n], w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	s := scratch[:n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(float64(n-1)*0.99)], n
}

// replica is one live backend: its client pool, load and health state.
type replica struct {
	idx int
	srv *server.Server // nil when attached to an external renderd
	cl  *client.Client

	outstanding atomic.Int64
	frames      atomic.Int64
	errs        atomic.Int64
	hedgesWon   atomic.Int64

	// suspectUntil (unix nanos) marks the replica recently failed a
	// dispatch; picks penalize it until the cooldown passes.
	suspectUntil atomic.Int64

	win latWindow
}

// suspectCooldown is how long a replica is deprioritized after a failed
// dispatch.
const suspectCooldown = time.Second

func (r *replica) suspect(now time.Time) {
	r.suspectUntil.Store(now.Add(suspectCooldown).UnixNano())
}

func (r *replica) isSuspect(now time.Time) bool {
	return now.UnixNano() < r.suspectUntil.Load()
}

// p99MS is the rolling-window p99 dispatch latency in milliseconds.
func (r *replica) p99MS() float64 {
	p99, _ := r.win.p99()
	return float64(p99) / 1e6
}

// degraded reports the replica's world is down and being rebuilt; only
// observable for in-process replicas (remote ones surface it through
// dispatch failures instead).
func (r *replica) degraded() bool { return r.srv != nil && r.srv.Degraded() }

// restarts reports the replica's world restart count (in-process only).
func (r *replica) restarts() int64 {
	if r.srv == nil {
		return 0
	}
	return r.srv.WorldRestarts()
}

// startReplicas builds every replica concurrently — world construction
// dominates gateway startup, and replicas are independent. Any failure
// shuts the already-started replicas down and fails Start.
func startReplicas(cfgs []ReplicaConfig) ([]*replica, error) {
	reps := make([]*replica, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, rc := range cfgs {
		wg.Add(1)
		go func(i int, rc ReplicaConfig) {
			defer wg.Done()
			reps[i], errs[i] = startReplica(i, rc)
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, r := range reps {
				if r != nil {
					r.stop()
				}
			}
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	return reps, nil
}

func startReplica(idx int, rc ReplicaConfig) (*replica, error) {
	r := &replica{idx: idx}
	addr := rc.Addr
	switch {
	case rc.Server != nil && rc.Addr != "":
		return nil, fmt.Errorf("both Server and Addr set")
	case rc.Server != nil:
		cfg := *rc.Server
		if cfg.Addr == "" {
			cfg.Addr = "127.0.0.1:0"
		}
		srv, err := server.Start(cfg)
		if err != nil {
			return nil, err
		}
		r.srv = srv
		addr = srv.Addr().String()
	case rc.Addr == "":
		return nil, fmt.Errorf("neither Server nor Addr set")
	}
	r.cl = client.NewPooled(addr, poolConns)
	return r, nil
}

// stop drops the replica's connections; shutdown of in-process servers
// is the gateway's, bounded by its context.
func (r *replica) stop() {
	if r.cl != nil {
		r.cl.Close()
	}
}
