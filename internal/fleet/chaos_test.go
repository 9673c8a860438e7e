package fleet_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/faultinject"
	"sortlast/internal/fleet"
	"sortlast/internal/server"
)

// TestFleetDrainsToSurvivorOnCrash is the chaos acceptance test of the
// fleet tier: one replica's world crashes mid-run and the gateway
// retries its failed dispatches on the survivor, so the client sees
// zero failed requests and every frame stays byte-identical to the
// fault-free reference. Once the crashed replica's supervisor rebuilds
// its world and the suspect cooldown lapses, the gateway routes to it
// again.
func TestFleetDrainsToSurvivorOnCrash(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 2
	inj := faultinject.New(faultinject.Config{Seed: 42})
	cfg := fleet.Config{
		Addr: "127.0.0.1:0",
		Replicas: []fleet.ReplicaConfig{
			{Server: &server.Config{P: p, QueueDepth: 16, MaxInFlight: 2, DefaultDeadline: time.Minute, Chaos: inj}},
			{Server: &server.Config{P: p, QueueDepth: 16, MaxInFlight: 2, DefaultDeadline: time.Minute}},
		},
		DefaultDeadline: time.Minute,
	}
	g, err := fleet.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(g.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	render := func(i int, rot float64) {
		t.Helper()
		req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 48, Height: 48, RotY: rot}
		f, err := cl.Render(ctx, req)
		if err != nil {
			t.Fatalf("request %d (rotY=%g) failed at the client: %v", i, rot, err)
		}
		if !bytes.Equal(f.Gray, referenceGray(t, req, p)) {
			t.Fatalf("request %d (rotY=%g) differs from fault-free reference", i, rot)
		}
	}

	// Healthy traffic first; distinct cameras keep the cache out of the
	// way so every request exercises a dispatch.
	for i := 0; i < 4; i++ {
		render(i, float64(i)*11)
	}

	// Kill a rank in replica 0's world. The next dispatches routed there
	// fail with the retryable world_failed code; the gateway must absorb
	// them by retrying on the survivor — the client sees only successes.
	inj.Crash(1)
	for i := 4; i < 16; i++ {
		render(i, float64(i)*11)
	}

	st := g.Stats()
	if st.Errors != 0 {
		t.Errorf("gateway surfaced %d request errors during the crash window", st.Errors)
	}
	if st.Retries == 0 {
		t.Error("gateway recorded no cross-replica retries across a replica crash")
	}
	if len(st.Replicas) != 2 || st.Replicas[1].Frames == 0 {
		t.Fatalf("survivor served no frames: %+v", st.Replicas)
	}

	// Recovery: the supervisor rebuilds replica 0's world (fresh
	// incarnations start healthy), the cooldown lapses, and the gateway
	// routes to it again.
	framesBefore := st.Replicas[0].Frames
	deadline := time.Now().Add(30 * time.Second)
	i := 16
	for time.Now().Before(deadline) {
		render(i, float64(i)*11)
		i++
		if g.Stats().Replicas[0].Frames > framesBefore {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := g.Stats().Replicas[0]; got.Frames <= framesBefore {
		t.Errorf("crashed replica never returned to service: %+v", got)
	}
	if r := g.Stats().Replicas[0].WorldRestarts; r < 1 {
		t.Errorf("replica 0 world restarts = %d, want >= 1", r)
	}

	cl.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

// TestFleetHedgesStalledReplica pins the hedging path: after the
// latency windows are warm, a request that lands on a replica whose
// world has wedged exceeds that replica's rolling p99, the hedge fires
// on the second replica, and the client gets a fast successful reply
// flagged as hedged — it never waits out the stall.
func TestFleetHedgesStalledReplica(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 2
	inj := faultinject.New(faultinject.Config{Seed: 7})
	// A short per-frame watchdog bounds how long the stalled replica
	// holds the losing dispatch, so shutdown stays fast.
	cfg := fleet.Config{
		Addr: "127.0.0.1:0",
		Replicas: []fleet.ReplicaConfig{
			{Server: &server.Config{P: p, QueueDepth: 16, MaxInFlight: 2, DefaultDeadline: time.Minute,
				FrameTimeout: time.Second, Chaos: inj}},
			{Server: &server.Config{P: p, QueueDepth: 16, MaxInFlight: 2, DefaultDeadline: time.Minute}},
		},
		DefaultDeadline: time.Minute,
	}
	g, err := fleet.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(g.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Warm replica 0's latency window past the cold-start sample count:
	// sequential distinct-camera requests all land on the lowest index,
	// dropping its hedge threshold from the 500ms cold default to the
	// measured p99 (floored at HedgeMin).
	for i := 0; i < 24; i++ {
		req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotY: float64(i) * 3.7}
		if _, err := cl.Render(ctx, req); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}

	// A warm-up request whose hedge won can leave replica 0 busy with
	// the loser, and join-shortest-queue would then route the next
	// request away from it: wait until neither replica counts a dispatch.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := g.Stats()
		if st.Replicas[0].Outstanding == 0 && st.Replicas[1].Outstanding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas still count dispatches after warm-up: %d, %d", st.Replicas[0].Outstanding, st.Replicas[1].Outstanding)
		}
	}

	// Wedge replica 0's world: transport ops block far longer than any
	// sane frame. The next request routed there must be rescued by the
	// hedge, not by the stall expiring.
	inj.Stall(1, 30*time.Second)
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotY: 271.3}
	ref := referenceGray(t, req, p)
	start := time.Now()
	f, err := cl.Render(ctx, req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("request against stalled replica: %v", err)
	}
	if !bytes.Equal(f.Gray, ref) {
		t.Fatal("hedged frame differs from fault-free reference")
	}
	if !f.Stats.Hedged {
		t.Error("winning reply not flagged as hedged")
	}
	if elapsed > 10*time.Second {
		t.Errorf("hedged request took %v; the hedge should fire near the warm p99, not the stall", elapsed)
	}
	st := g.Stats()
	if st.HedgesIssued < 1 {
		t.Errorf("hedges issued = %d, want >= 1", st.HedgesIssued)
	}
	if st.HedgeWins < 1 {
		t.Errorf("hedge wins = %d, want >= 1", st.HedgeWins)
	}
	if len(st.Replicas) == 2 && st.Replicas[1].HedgeWins < 1 {
		t.Errorf("replica 1 hedge wins = %d, want >= 1", st.Replicas[1].HedgeWins)
	}

	cl.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}
