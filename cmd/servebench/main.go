// Command servebench measures the serving tier end to end: it starts an
// in-process renderd (resident rank pool, admission queue, pipelined
// frames), drives it with concurrent client requests, and reports
// frames per second and p50/p99 request latency per world size.
//
//	go run ./cmd/servebench -frames 32 -out BENCH_serve.json
//
// The JSON output is an array of per-configuration records, one per
// (P, method) pair, consumed by `make bench-json`.
//
// With -fleet N the benchmark instead measures the fleet gateway
// (cmd/renderfleet's tier) against a single-world baseline and sweeps
// an open-loop, coordinated-omission-safe load curve; see fleet.go.
//
//	go run ./cmd/servebench -fleet 2 -out BENCH_fleet.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/faultinject"
	"sortlast/internal/server"
)

var (
	frames    = flag.Int("frames", 32, "frames per configuration")
	size      = flag.Int("size", 256, "image size (square)")
	inflight  = flag.Int("inflight", 2, "max frames pipelined through the stages")
	conc      = flag.Int("conc", 8, "concurrent client requests")
	out       = flag.String("out", "BENCH_serve.json", "output path (- for stdout)")
	metrics   = flag.String("metrics-addr", "", "observability sidecar address for the in-process renderd (/healthz, /metrics, /debug/pprof/, /debug/trace/last); empty (the default) disables")
	chaos     = flag.Bool("chaos", false, "inject probabilistic connection resets into the rank world and drive through them with a retrying client (exercises world supervision under load; failed frames are counted, not fatal)")
	chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed, so a chaos run is reproducible")
	quality   = flag.String("quality", "", "quality contract stamped on every request (full, preview), or \"sweep\" to bench both on one dense workload and write per-quality records")
)

// record is one benchmark configuration's result.
type record struct {
	P         int     `json:"p"`
	Method    string  `json:"method"`
	Quality   string  `json:"quality,omitempty"`
	Frames    int     `json:"frames"`
	Size      int     `json:"size"`
	FPS       float64 `json:"frames_per_sec"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	WireBytes int64   `json:"wire_bytes_per_frame"`

	// Server-side decomposition of the latency, averaged over successful
	// frames: time spent queued behind admission control vs. in the
	// render/composite pipeline (from FrameStats on each reply). Their
	// gap to P50MS is transport + client overhead.
	QueueMS  float64 `json:"queue_ms_avg"`
	RenderMS float64 `json:"render_ms_avg"`

	// Chaos-mode extras: frames that exhausted their retry budget and
	// how many times the supervisor rebuilt the rank world.
	Failed        int   `json:"failed_frames,omitempty"`
	WorldRestarts int64 `json:"world_restarts,omitempty"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if *fleetN > 0 {
		return runFleet()
	}
	if *quality == "sweep" {
		return runQualitySweep()
	}
	q, err := server.NormalizeQuality(*quality)
	if err != nil {
		return err
	}
	var records []record
	for _, p := range []int{4, 8} {
		for _, method := range []string{"bs", "bsbrc"} {
			rec, err := bench(p, method, q)
			if err != nil {
				return fmt.Errorf("P=%d method=%s: %w", p, method, err)
			}
			records = append(records, rec)
			line := fmt.Sprintf("P=%d %-6s %6.2f frames/s  p50 %6.1f ms  p99 %6.1f ms  queue %5.1f ms  render %5.1f ms",
				rec.P, rec.Method, rec.FPS, rec.P50MS, rec.P99MS, rec.QueueMS, rec.RenderMS)
			if *chaos {
				line += fmt.Sprintf("  world restarts %d  failed frames %d", rec.WorldRestarts, rec.Failed)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// runQualitySweep benches both quality contracts on one dense
// workload (cube at -size, bsbrc, P=4) and writes per-quality records.
// The sweep asserts the contract's point: preview must cut p99 latency
// at least in half against full on the same workload, or the run fails
// loudly — a quality knob that does not buy latency is a regression.
func runQualitySweep() error {
	const p, method = 4, "bsbrc"
	var records []record
	for _, q := range []string{server.QualityFull, server.QualityPreview} {
		rec, err := bench(p, method, q)
		if err != nil {
			return fmt.Errorf("quality=%s: %w", q, err)
		}
		records = append(records, rec)
		fmt.Fprintf(os.Stderr, "P=%d %-6s quality=%-7s %6.2f frames/s  p50 %6.1f ms  p99 %6.1f ms  wire %d B/frame\n",
			rec.P, rec.Method, q, rec.FPS, rec.P50MS, rec.P99MS, rec.WireBytes)
	}
	full, prev := records[0], records[1]
	if prev.P99MS*2 > full.P99MS {
		return fmt.Errorf("preview p99 %.1f ms is not at least 2x below full p99 %.1f ms",
			prev.P99MS, full.P99MS)
	}
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

func bench(p int, method, quality string) (record, error) {
	cfg := server.Config{
		Addr: "127.0.0.1:0", P: p,
		HTTPAddr:        *metrics,
		QueueDepth:      2 * *frames,
		MaxInFlight:     *inflight,
		DefaultDeadline: 5 * time.Minute,
	}
	if *chaos {
		cfg.Chaos = faultinject.New(faultinject.Config{Seed: *chaosSeed, ResetProb: 0.01})
		cfg.FrameTimeout = 2 * time.Second
	}
	srv, err := server.Start(cfg)
	if err != nil {
		return record{}, fmt.Errorf("in-process renderd failed to start (world=mp, P=%d): %w", p, err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	cl := client.New(srv.Addr().String())
	defer cl.Close()
	if *chaos {
		cl.SetRetryPolicy(client.RetryPolicy{
			MaxAttempts: 10,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
		})
	}

	req := server.Request{Dataset: "cube", Method: method, Width: *size, Height: *size, RotY: 30, Quality: quality}
	ctx := context.Background()
	if _, err := cl.Render(ctx, req); err != nil && !*chaos { // warm the dataset cache
		return record{}, err
	}

	var latencies []time.Duration
	var wire int64
	var queueMS, renderMS float64
	var failed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, *conc)
	errs := make(chan error, *frames)
	start := time.Now()
	for i := 0; i < *frames; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			f, err := cl.Render(ctx, req)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			latencies = append(latencies, time.Since(t0))
			wire += f.Stats.WireBytes
			queueMS += f.Stats.QueueMS
			renderMS += f.Stats.RenderMS
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	var lastErr error
	for err := range errs {
		// Under chaos a frame may exhaust its retry budget; count it and
		// keep going. A failure without chaos is a real bug.
		if !*chaos {
			return record{}, err
		}
		failed++
		lastErr = err
	}
	if len(latencies) == 0 {
		return record{}, fmt.Errorf("all %d frames failed: %w", *frames, lastErr)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) float64 {
		i := int(q * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	return record{
		P: p, Method: method, Quality: quality, Frames: len(latencies), Size: *size,
		FPS:           float64(len(latencies)) / elapsed.Seconds(),
		P50MS:         quantile(0.50),
		P99MS:         quantile(0.99),
		WireBytes:     wire / int64(len(latencies)),
		QueueMS:       queueMS / float64(len(latencies)),
		RenderMS:      renderMS / float64(len(latencies)),
		Failed:        failed,
		WorldRestarts: srv.WorldRestarts(),
	}, nil
}
