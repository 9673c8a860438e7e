package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/fleet"
	"sortlast/internal/server"
)

// The serving probes always use serve_mix's dataset, size and replica
// shape: serving is scene-independent, and only serve_mix has these
// layers in its frame.

// scrape reads one Prometheus text exposition and sums every series of
// each metric family (labels folded).
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	sums := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		sums[name] += v
	}
	return sums, sc.Err()
}

// stop shuts a server or gateway down, giving it ten seconds to drain.
// The error is dropped: nothing is in flight, and the process is about
// to print its result and exit either way.
func stop(shutdown func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = shutdown(ctx)
}

// probeServer sends fresh full-quality requests straight to one replica
// and splits each reply's FrameStats: the part of the server's total
// that neither queue wait nor ray casting explains is the share
// ROADMAP.md calls unnamed. The same requests against a replica with
// span recording off price the server's own tracing.
func probeServer(seed int64, requests int, r results) error {
	start := func(cfg server.Config) (*server.Server, *client.Client, float64, error) {
		cfg.Addr, cfg.HTTPAddr, cfg.P = "127.0.0.1:0", "127.0.0.1:0", serveP
		t0 := time.Now()
		s, err := server.Start(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		return s, client.New(s.Addr().String()), float64(time.Since(t0)) / 1e6, nil
	}
	srv, cl, startMS, err := start(server.Config{})
	if err != nil {
		return err
	}
	defer stop(srv.Shutdown)
	defer cl.Close()
	quiet, qcl, _, err := start(server.Config{DisableTracing: true})
	if err != nil {
		return err
	}
	defer stop(quiet.Shutdown)
	defer qcl.Close()
	r["server.start_ms"] = startMS

	var reqs []serveReq
	for _, q := range serveSchedule(seed, 4*requests) {
		if q.kind == kindFull && len(reqs) < requests {
			reqs = append(reqs, q)
		}
	}
	for _, c := range []*client.Client{cl, qcl} { // warm both worlds
		if _, _, err := fetch(c, reqs[0]); err != nil {
			return err
		}
	}
	before, err := scrape(srv.HTTPAddr().String())
	if err != nil {
		return err
	}
	var queue, rend, total, unnamed, direct, untraced []float64
	for _, q := range reqs {
		f, d, err := fetch(cl, q)
		if err != nil {
			return err
		}
		st := f.Stats
		queue = append(queue, st.QueueMS)
		rend = append(rend, st.RenderMS)
		total = append(total, st.TotalMS)
		unnamed = append(unnamed, st.TotalMS-st.QueueMS-st.RenderMS)
		direct = append(direct, float64(d)/1e6)
		// Alternate, so drift on the host lands on both sides.
		_, d, err = fetch(qcl, q)
		if err != nil {
			return err
		}
		untraced = append(untraced, float64(d)/1e6)
	}
	after, err := scrape(srv.HTTPAddr().String())
	if err != nil {
		return err
	}
	n := float64(len(reqs))
	r["server.queue_ms_p50"] = median(queue)
	r["server.render_ms_p50"] = median(rend)
	r["server.total_ms_p50"] = median(total)
	r["server.unnamed_ms_p50"] = median(unnamed)
	r["server.direct_ms_p50"] = median(direct)
	r["server.wire_kb_per_frame"] = (after["renderd_wire_bytes_total"] - before["renderd_wire_bytes_total"]) / 1024 / n
	r["server.degraded_share"] = (after["renderd_degraded_total"] - before["renderd_degraded_total"]) / n
	r["server.world_restarts"] = after["renderd_world_restarts_total"]
	r["trace.server_overhead_share"] = median(direct)/median(untraced) - 1
	return nil
}

// probeFleet runs a short single-caller slice of the serving mix through
// a gateway and reads what the gateway counted.
func probeFleet(seed int64, requests int, r results) error {
	t0 := time.Now()
	gw, err := startFleet(fleet.Config{})
	if err != nil {
		return err
	}
	r["fleet.start_ms"] = float64(time.Since(t0)) / 1e6
	cl := client.New(gw.Addr().String())
	defer stop(gw.Shutdown)
	defer cl.Close()
	for _, q := range bookmarkCameras(seed) { // fill the cache
		if _, _, err := fetch(cl, q); err != nil {
			return err
		}
	}
	base := gw.Stats()
	var hit, over, preview []float64
	for _, q := range serveSchedule(seed, requests) {
		f, d, err := fetch(cl, q)
		if err != nil {
			return err
		}
		ms := float64(d) / 1e6
		switch {
		case f.Stats.Cached:
			hit = append(hit, ms)
		case q.kind == kindPreview:
			preview = append(preview, ms)
		default:
			over = append(over, ms-f.Stats.TotalMS)
		}
	}
	st := gw.Stats()
	n := float64(st.Requests - base.Requests)
	r["fleet.hit_share"] = float64(st.CacheHits-base.CacheHits) / n
	r["fleet.hit_ms_p50"] = median(hit)
	r["fleet.miss_overhead_ms_p50"] = median(over)
	r["fleet.hedge_share"] = float64(st.HedgesIssued-base.HedgesIssued) / n
	r["fleet.retry_share"] = float64(st.Retries-base.Retries) / n
	r["fleet.evictions"] = float64(st.CacheEvictions - base.CacheEvictions)
	var most, sum float64
	for i, rep := range st.Replicas {
		fr := float64(rep.Frames - base.Replicas[i].Frames)
		most, sum = max(most, fr), sum+fr
	}
	if sum > 0 {
		r["fleet.replica_imbalance"] = most / (sum / float64(len(st.Replicas)))
	}
	r["client.preview_ms_p50"] = median(preview)
	return nil
}
