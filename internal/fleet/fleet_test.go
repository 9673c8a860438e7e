package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/fleet"
	"sortlast/internal/harness"
	"sortlast/internal/render"
	"sortlast/internal/server"
)

// referenceGray renders the request through the one-shot harness path,
// which checks the frame against the sequential compositing oracle
// before it becomes the reference.
func referenceGray(t *testing.T, req server.Request, p int) []byte {
	t.Helper()
	_, img, err := harness.RunWithImage(harness.Config{
		Dataset: req.Dataset, Method: req.Method,
		Width: req.Width, Height: req.Height,
		P:    p,
		RotX: req.RotX, RotY: req.RotY,
		Validate:   true,
		RenderOpts: render.Options{Shaded: req.Shaded},
	})
	if err != nil {
		t.Fatalf("reference run %+v: %v", req, err)
	}
	return img.AppendGray(nil)
}

// waitNoLeaks polls until the goroutine count returns to the baseline.
func waitNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}

func twoReplicaConfig(p int) fleet.Config {
	mk := func() *server.Config {
		return &server.Config{P: p, QueueDepth: 64, MaxInFlight: 2, DefaultDeadline: time.Minute}
	}
	return fleet.Config{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		Replicas:        []fleet.ReplicaConfig{{Server: mk()}, {Server: mk()}},
		DefaultDeadline: time.Minute,
	}
}

// TestFleetEndToEnd is the acceptance test of the fleet tier: a gateway
// over two in-process replicas serves 64 requests cycling through 8
// cameras — every frame byte-identical to a one-shot harness run
// (cached replies included), repeat cameras hit the frame cache, the
// per-replica accounting adds up, the observability surface reports the
// traffic, and shutdown leaks no goroutines.
func TestFleetEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 2
	g, err := fleet.Start(twoReplicaConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(g.Addr().String())

	// 64 requests over 8 distinct cameras: 8 misses, 56 exact-camera
	// repeats that the frame cache should absorb.
	const requests, cameras = 64, 8
	reqs := make([]server.Request, requests)
	refs := make(map[float64][]byte, cameras)
	for i := range reqs {
		rot := float64((i % cameras) * 10)
		reqs[i] = server.Request{Dataset: "cube", Method: "bsbrc", Width: 48, Height: 48, RotY: rot}
		if _, ok := refs[rot]; !ok {
			refs[rot] = referenceGray(t, reqs[i], p)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	cached := 0
	errCh := make(chan error, requests)
	sem := make(chan struct{}, 8)
	for i, r := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, r server.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			f, err := cl.Render(ctx, r)
			if err != nil {
				errCh <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			if !bytes.Equal(f.Gray, refs[r.RotY]) {
				errCh <- fmt.Errorf("request %d (rotY=%g, cached=%v): image differs from one-shot run", i, r.RotY, f.Stats.Cached)
				return
			}
			mu.Lock()
			if f.Stats.Cached {
				cached++
			}
			mu.Unlock()
		}(i, r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatal("fleet served wrong frames")
	}

	st := g.Stats()
	if st.CacheHits == 0 || cached == 0 {
		t.Errorf("no cache hits across %d requests over %d cameras (stats hits=%d, client-observed=%d)",
			requests, cameras, st.CacheHits, cached)
	}
	if int64(cached) != st.CacheHits {
		t.Errorf("client observed %d cached replies, gateway counted %d hits", cached, st.CacheHits)
	}
	var replicaFrames int64
	for _, r := range st.Replicas {
		replicaFrames += r.Frames
	}
	// Every miss was rendered by exactly one replica (no hedges should
	// fire on a healthy fleet with a cold-start threshold of 500ms).
	if replicaFrames+st.CacheHits < int64(requests) {
		t.Errorf("accounting: %d replica frames + %d cache hits < %d requests", replicaFrames, st.CacheHits, requests)
	}
	if st.Requests != int64(requests) {
		t.Errorf("gateway counted %d requests, want %d", st.Requests, requests)
	}

	// Observability surface.
	httpBase := "http://" + g.HTTPAddr().String()
	hresp, err := http.Get(httpBase + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %v", err, hresp)
	}
	hresp.Body.Close()
	mresp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, substr := range []string{
		`fleet_cache_requests_total{outcome="hit"}`,
		`fleet_cache_requests_total{outcome="miss"}`,
		`fleet_replica_frames_total{replica="0"}`,
		`fleet_replica_frames_total{replica="1"}`,
		`fleet_hedges_total`,
		`fleet_request_latency_seconds_bucket{le="+Inf"}`,
	} {
		if !bytes.Contains(body, []byte(substr)) {
			t.Errorf("metrics missing %q", substr)
		}
	}
	if bytes.Contains(body, []byte(`fleet_cache_requests_total{outcome="hit"} 0`)) {
		t.Error("metrics report zero cache hits after a repeat-camera workload")
	}

	// Dataset invalidation empties the cube entries; the next repeat
	// camera misses and re-renders identically.
	iresp, err := http.Get(httpBase + "/cache/invalidate?dataset=cube")
	if err != nil || iresp.StatusCode != http.StatusOK {
		t.Fatalf("cache invalidate: %v status %v", err, iresp)
	}
	iresp.Body.Close()
	if st := g.Stats(); st.CacheEntries != 0 {
		t.Errorf("cache holds %d entries after dataset invalidation", st.CacheEntries)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	f, err := cl.Render(ctx, reqs[0])
	cancel()
	if err != nil {
		t.Fatalf("render after invalidation: %v", err)
	}
	if f.Stats.Cached {
		t.Error("reply claimed to be cached right after invalidation")
	}
	if !bytes.Equal(f.Gray, refs[reqs[0].RotY]) {
		t.Error("re-rendered frame after invalidation differs from reference")
	}

	cl.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

// A cached reply must be byte-identical to the fresh render that
// populated it, and must be flagged as cached.
func TestFleetCacheByteIdentity(t *testing.T) {
	before := runtime.NumGoroutine()
	g, err := fleet.Start(twoReplicaConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(g.Addr().String())
	req := server.Request{Dataset: "cube", Method: "bs", Width: 40, Height: 40, RotY: 77.5}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fresh, err := cl.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.Cached {
		t.Fatal("first render of a camera claimed a cache hit")
	}
	if fresh.Stats.Replica == 0 {
		t.Error("fresh render did not report its serving replica")
	}
	hit, err := cl.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.Cached {
		t.Fatal("exact repeat camera missed the cache")
	}
	if !bytes.Equal(fresh.Gray, hit.Gray) {
		t.Error("cached reply differs from the fresh render")
	}
	if !bytes.Equal(fresh.Gray, referenceGray(t, req, 2)) {
		t.Error("fresh render differs from the one-shot harness run")
	}

	cl.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

// A negative CacheBytes really disables the cache: an exact repeat
// camera is rendered again, nothing is stored, and no lookup is counted
// (the branch renderfleet -cache-bytes -1 turns on).
func TestFleetCacheDisabled(t *testing.T) {
	cfg := twoReplicaConfig(2)
	cfg.CacheBytes = -1
	g, err := fleet.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown(context.Background())
	cl := client.New(g.Addr().String())
	defer cl.Close()

	req := server.Request{Dataset: "cube", Method: "bs", Width: 40, Height: 40, RotY: 77.5}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ref := referenceGray(t, req, 2)
	for i := 0; i < 2; i++ {
		f, err := cl.Render(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if f.Stats.Cached || f.Stats.Replica == 0 {
			t.Errorf("request %d: cached=%v replica=%d, want a fresh render from a replica", i, f.Stats.Cached, f.Stats.Replica)
		}
		if !bytes.Equal(f.Gray, ref) {
			t.Errorf("request %d differs from the one-shot harness run", i)
		}
	}
	st := g.Stats()
	var frames int64
	for _, r := range st.Replicas {
		frames += r.Frames
	}
	if frames != 2 || st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Errorf("replicas rendered %d frames, stats %+v; want 2 renders and an untouched cache", frames, st)
	}
	_, body := gatewayGet(t, "http://"+g.HTTPAddr().String()+"/metrics")
	for _, want := range []string{`fleet_cache_requests_total{outcome="hit"} 0`, "fleet_cache_entries 0"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestGatewayRejectsOversizeGeometry: the gateway applies the protocol's
// geometry bound itself. An oversize request is a typed bad_request
// that never reaches a replica — here a bare listener standing in for
// one, which must see no connection at all.
func TestGatewayRejectsOversizeGeometry(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	var dialled atomic.Int64
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			dialled.Add(1)
			c.Close()
		}
	}()
	g, err := fleet.Start(fleet.Config{
		Addr:     "127.0.0.1:0",
		Replicas: []fleet.ReplicaConfig{{Addr: backend.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(g.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = cl.Render(ctx, server.Request{Dataset: "cube", Width: 100000, Height: 100000})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("oversize request through the gateway: got %v, want ErrBadRequest", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<20 {
		t.Errorf("rejecting one oversize request allocated %d MiB", grown>>20)
	}
	st := g.Stats()
	if st.Requests != 1 || st.Errors != 1 {
		t.Errorf("gateway counted requests=%d errors=%d, want 1 and 1", st.Requests, st.Errors)
	}
	if r := st.Replicas[0]; r.Frames+r.Errors+r.Outstanding != 0 || dialled.Load() != 0 {
		t.Errorf("replica was contacted: %+v, %d connections", r, dialled.Load())
	}
	cl.Close()
	if err := g.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
