// Command renderfleet runs the fleet gateway: N supervised renderd
// replicas behind one frame-protocol endpoint, with
// least-outstanding-work routing, hedged dispatch at each replica's
// rolling p99, cross-replica retries, and a camera-quantized frame
// cache. The gateway speaks the same length-prefixed protocol as
// renderd, so internal/client works unchanged against it.
//
//	renderfleet -listen 127.0.0.1:7261 -metrics-addr 127.0.0.1:7262 -replicas 2 -p 4 &
//	curl -s http://127.0.0.1:7262/metrics | grep fleet_cache
//	curl -s http://127.0.0.1:7262/debug/flight  # recent slow/failed/hedged requests
//
// Replicas are in-process by default (each its own supervised rank
// world); -attach points the gateway at externally-run renderd
// processes instead. -p takes either one value applied to every
// replica or a comma-separated list for a heterogeneous fleet.
// SIGINT/SIGTERM drain gracefully: in-flight frames finish, replicas
// shut down, hedge losers are reaped.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sortlast/internal/fleet"
	"sortlast/internal/obs"
	"sortlast/internal/server"
)

var (
	listen      = flag.String("listen", "127.0.0.1:7261", "frame-protocol listen address")
	metricsAddr = flag.String("metrics-addr", "127.0.0.1:7262", "observability sidecar address serving /healthz, /metrics, /debug/pprof/ and /debug/flight; empty disables")
	replicas    = flag.Int("replicas", 2, "in-process renderd replicas (ignored with -attach)")
	attach      = flag.String("attach", "", "comma-separated addresses of externally-run renderd processes to route to instead of starting in-process replicas")
	pList       = flag.String("p", "4", "resident ranks per replica: one value for all, or a comma-separated per-replica list")
	queue       = flag.Int("queue", 64, "admission queue depth per replica")
	inflight    = flag.Int("inflight", 2, "max frames pipelined per replica")
	workers     = flag.Int("workers", 0, "ray-casting workers per rank (0: GOMAXPROCS)")
	deadline    = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	frameTO     = flag.Duration("frame-timeout", 0, "per-frame watchdog deadline per replica (0: 60s)")
	cacheBytes  = flag.Int64("cache-bytes", 0, "frame cache byte budget (0: 64 MiB; negative disables the cache)")
	hedgeMin    = flag.Duration("hedge-min", 0, "floor on the hedge trigger delay (0: 10ms)")
	noTrace     = flag.Bool("no-trace", false, "disable request tracing at the gateway (no trace propagation to replicas, no merged span trees, no /debug/flight)")
	drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "renderfleet: %v\n", err)
		os.Exit(1)
	}
}

// perReplicaP expands -p into one rank count per replica.
func perReplicaP(spec string, n int) ([]int, error) {
	parts := strings.Split(spec, ",")
	ps := make([]int, 0, len(parts))
	for _, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -p value %q", s)
		}
		ps = append(ps, v)
	}
	if len(ps) == 1 {
		one := ps[0]
		ps = make([]int, n)
		for i := range ps {
			ps[i] = one
		}
	}
	if len(ps) != n {
		return nil, fmt.Errorf("-p lists %d values for %d replicas", len(ps), n)
	}
	return ps, nil
}

// replicaConfigs builds the replica set the flags describe: -attach
// addresses, or -replicas in-process renderd configurations.
func replicaConfigs() ([]fleet.ReplicaConfig, error) {
	var rcs []fleet.ReplicaConfig
	if *attach != "" {
		for _, a := range strings.Split(*attach, ",") {
			if a = strings.TrimSpace(a); a != "" {
				rcs = append(rcs, fleet.ReplicaConfig{Addr: a})
			}
		}
		if len(rcs) == 0 {
			return nil, fmt.Errorf("-attach lists no addresses")
		}
		return rcs, nil
	}
	if *replicas < 1 {
		return nil, fmt.Errorf("-replicas must be >= 1")
	}
	ps, err := perReplicaP(*pList, *replicas)
	if err != nil {
		return nil, err
	}
	for i := 0; i < *replicas; i++ {
		rcs = append(rcs, fleet.ReplicaConfig{Server: &server.Config{
			P:               ps[i],
			QueueDepth:      *queue,
			MaxInFlight:     *inflight,
			Workers:         *workers,
			DefaultDeadline: *deadline,
			FrameTimeout:    *frameTO,
			// An in-process replica has no sidecar, so with gateway
			// tracing off nothing could read what its recorder keeps.
			DisableTracing: *noTrace,
		}})
	}
	return rcs, nil
}

func run() error {
	rcs, err := replicaConfigs()
	if err != nil {
		return err
	}
	g, err := fleet.Start(fleet.Config{
		Addr:            *listen,
		HTTPAddr:        *metricsAddr,
		Replicas:        rcs,
		CacheBytes:      *cacheBytes,
		HedgeMin:        *hedgeMin,
		DefaultDeadline: *deadline,
		DisableTracing:  *noTrace,
	})
	if err != nil {
		return err
	}
	mode := fmt.Sprintf("%d in-process replicas", len(rcs))
	if *attach != "" {
		mode = fmt.Sprintf("%d attached replicas", len(rcs))
	}
	fmt.Printf("renderfleet: serving frames on %s (%s, cache=%v)\n",
		g.Addr(), mode, *cacheBytes >= 0)
	if a := g.HTTPAddr(); a != nil {
		fmt.Printf("renderfleet: /healthz, /metrics, /debug/pprof/ and /debug/flight on http://%s\n", a)
	}
	return obs.DrainOnSignal("renderfleet", *drain, g.Shutdown)
}
