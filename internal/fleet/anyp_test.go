package fleet_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/core"
	"sortlast/internal/fleet"
	"sortlast/internal/server"
)

// The fleet tier must route and frame-cache every registered method at
// a non-power-of-two replica world size, each frame byte-identical to a
// harness run validated against the sequential oracle.
func TestFleetServesTileRoutedNonPow2(t *testing.T) {
	for _, p := range []int{3, 6} {
		servesEveryMethod(t, p)
	}
}

func servesEveryMethod(t *testing.T, p int) {
	g, err := fleet.Start(twoReplicaConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(g.Addr().String())
	defer func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// Two cameras per method, three requests each: the first per camera
	// misses and is rendered by a replica, repeats are frame-cache hits.
	var reqs []server.Request
	for _, m := range core.Names() {
		reqs = append(reqs,
			server.Request{Dataset: "cube", Method: m, Width: 48, Height: 48, RotY: 0},
			server.Request{Dataset: "cube", Method: m, Width: 48, Height: 48, RotY: 25})
	}
	refs := make([][]byte, len(reqs))
	for i, r := range reqs {
		refs[i] = referenceGray(t, r, p)
	}
	cached := 0
	for round := 0; round < 3; round++ {
		for i, r := range reqs {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			f, err := cl.Render(ctx, r)
			cancel()
			if err != nil {
				t.Fatalf("P=%d round %d %s: %v", p, round, r.Method, err)
			}
			if !bytes.Equal(f.Gray, refs[i]) {
				t.Fatalf("P=%d round %d (cached=%v): %s frame differs from one-shot run",
					p, round, f.Stats.Cached, r.Method)
			}
			if f.Stats.Cached {
				cached++
			} else if f.Stats.Replica == 0 {
				t.Errorf("P=%d round %d %s: fresh frame reports no routing replica", p, round, r.Method)
			}
		}
	}
	if cached != 2*len(reqs) {
		t.Errorf("P=%d: frame cache absorbed %d of %d repeat requests", p, cached, 2*len(reqs))
	}
	st := g.Stats()
	if st.CacheHits != int64(cached) {
		t.Errorf("P=%d: gateway counted %d hits, client observed %d", p, st.CacheHits, cached)
	}
	var frames int64
	for _, r := range st.Replicas {
		frames += r.Frames
	}
	if frames+st.CacheHits != int64(st.Requests) {
		t.Errorf("P=%d routing accounting: %d replica frames + %d hits != %d requests",
			p, frames, st.CacheHits, st.Requests)
	}
}
