// Command renderd runs the persistent frame service: a resident
// in-process rank pool that keeps volumes, transfer functions and
// compositing scratch warm across requests and serves render requests
// over a length-prefixed TCP protocol, with admission control,
// pipelined frames and an HTTP observability sidecar.
//
//	renderd -listen 127.0.0.1:7171 -metrics-addr 127.0.0.1:7172 -p 8 &
//	curl -s http://127.0.0.1:7172/metrics | grep renderd_frames_total
//	curl -s http://127.0.0.1:7172/debug/trace/last > frame.json  # Perfetto
//	curl -s http://127.0.0.1:7172/debug/flight                   # recent slow/failed frames
//
// Requests are made with the internal/client library (bench/serve_mix.go
// drives load through it). SIGINT/SIGTERM drain the server gracefully:
// queued requests are answered with a typed shutting-down error,
// in-flight frames finish and are delivered. The ranks are goroutines
// exchanging messages by value; for one OS process per rank over TCP
// sockets, run cmd/clusternode.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sortlast/internal/obs"
	"sortlast/internal/server"
)

var (
	listen      = flag.String("listen", "127.0.0.1:7171", "frame-protocol listen address")
	metricsAddr = flag.String("metrics-addr", "127.0.0.1:7172", "observability sidecar address serving /healthz, /metrics, /debug/pprof/ and /debug/trace/last; empty disables")
	noTrace     = flag.Bool("no-trace", false, "disable the per-frame span recorder (empties /debug/trace/last and /debug/flight; the latency and phase histograms still count every frame)")
	p           = flag.Int("p", 4, "resident ranks")
	queue       = flag.Int("queue", 64, "admission queue depth (full queue rejects with a typed overload error)")
	inflight    = flag.Int("inflight", 2, "max frames pipelined through the render/composite stages")
	deadline    = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	frameTO     = flag.Duration("frame-timeout", 0, "per-frame watchdog deadline; a frame stuck longer fails the rank world, which is rebuilt (0: 60s)")
	drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "renderd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	srv, err := server.Start(server.Config{
		Addr:            *listen,
		HTTPAddr:        *metricsAddr,
		P:               *p,
		QueueDepth:      *queue,
		MaxInFlight:     *inflight,
		DefaultDeadline: *deadline,
		FrameTimeout:    *frameTO,
		DisableTracing:  *noTrace,
	})
	if err != nil {
		return err
	}
	fmt.Printf("renderd: serving frames on %s (P=%d, queue=%d, inflight=%d)\n",
		srv.Addr(), *p, *queue, *inflight)
	if a := srv.HTTPAddr(); a != nil {
		fmt.Printf("renderd: /healthz, /metrics, /debug/pprof/, /debug/trace/last and /debug/flight on http://%s\n", a)
	}
	return obs.DrainOnSignal("renderd", *drain, srv.Shutdown)
}
