package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/faultinject"
	"sortlast/internal/server"
)

// chaosServer starts a renderd with a fault injector wired into the
// rank world and returns the injector alongside the usual pair.
func chaosServer(t *testing.T, cfg server.Config, fi faultinject.Config) (*server.Server, *client.Client, *faultinject.Injector) {
	t.Helper()
	inj := faultinject.New(fi)
	cfg.Chaos = inj
	srv, cl := startServer(t, cfg)
	return srv, cl, inj
}

func renderOnce(t *testing.T, cl *client.Client, req server.Request) (*client.Frame, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return cl.Render(ctx, req)
}

// TestWorldCrashRecovery is the acceptance test of the supervision
// layer: a rank crash mid-frame fails the in-flight request with the
// typed retryable code, the supervisor rebuilds the world, and the next
// frame is byte-identical to a fault-free run — all without leaking a
// goroutine under the race detector.
func TestWorldCrashRecovery(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 4
	srv, cl, inj := chaosServer(t, server.Config{
		HTTPAddr: "127.0.0.1:0",
		P:        p, QueueDepth: 8, MaxInFlight: 2,
		DefaultDeadline: time.Minute,
	}, faultinject.Config{Seed: 42})

	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 64, Height: 64, RotY: 30}
	ref := referenceGray(t, req, p)

	f, err := renderOnce(t, cl, req)
	if err != nil {
		t.Fatalf("healthy frame: %v", err)
	}
	if !bytes.Equal(f.Gray, ref) {
		t.Fatal("healthy frame differs from one-shot harness run")
	}

	// Kill rank 1: every transport operation on it now fails, so the
	// next frame dies inside the compositing exchange.
	inj.Crash(1)
	if _, err := renderOnce(t, cl, req); !errors.Is(err, client.ErrWorldFailed) {
		t.Fatalf("frame against crashed rank: err = %v, want ErrWorldFailed", err)
	}

	// Admission stays open while the supervisor rebuilds: this request
	// queues until the fresh world dispatches it, and the rebuilt world
	// (whose injector incarnation starts healthy) must produce a frame
	// byte-identical to the fault-free reference.
	f, err = renderOnce(t, cl, req)
	if err != nil {
		t.Fatalf("frame after world restart: %v", err)
	}
	if !bytes.Equal(f.Gray, ref) {
		t.Error("frame after world restart differs from fault-free reference")
	}
	if n := srv.WorldRestarts(); n < 1 {
		t.Errorf("WorldRestarts() = %d, want >= 1", n)
	}
	if srv.Degraded() {
		t.Error("server still degraded after a successful frame")
	}

	// The restart is on the metrics surface and health is green again.
	httpBase := "http://" + srv.HTTPAddr().String()
	mresp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var restarts int
	pattern := "\nrenderd_world_restarts_total "
	if i := bytes.Index(body, []byte(pattern)); i < 0 {
		t.Errorf("metrics missing %q", pattern)
	} else if fmt.Sscanf(string(body[i+len(pattern):]), "%d", &restarts); restarts < 1 {
		t.Errorf("renderd_world_restarts_total = %d, want >= 1", restarts)
	}
	if !bytes.Contains(body, []byte(`renderd_request_errors_total{code="world_failed"}`)) {
		t.Error(`metrics missing renderd_request_errors_total{code="world_failed"}`)
	}
	hresp, err := http.Get(httpBase + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after recovery: %v status %v", err, hresp.Status)
	}
	hresp.Body.Close()

	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

// TestWatchdogUnwedgesStalledRank covers the failure mode where no rank
// ever returns an error: one rank stalls (the paper's slow-SP2-node
// case, here 30s against a 300ms frame budget), the per-frame watchdog
// declares the world wedged, the stalled sleep is released by teardown
// instead of being slept out, and service resumes on a fresh world.
// The watchdog has this one behaviour: a frame that opted into degraded
// delivery is failed like any other, and its successor is full quality.
func TestWatchdogUnwedgesStalledRank(t *testing.T) {
	for _, degradeOK := range []bool{false, true} {
		t.Run(fmt.Sprintf("degrade_ok=%v", degradeOK), func(t *testing.T) {
			before := runtime.NumGoroutine()

			const p = 4
			srv, cl, inj := chaosServer(t, server.Config{
				P: p, QueueDepth: 8, MaxInFlight: 2,
				DefaultDeadline: time.Minute,
				FrameTimeout:    300 * time.Millisecond,
			}, faultinject.Config{Seed: 1})

			req := server.Request{Dataset: "cube", Method: "bs", Width: 48, Height: 48, DegradeOK: degradeOK}
			ref := referenceGray(t, req, p)

			inj.Stall(1, 30*time.Second)
			start := time.Now()
			if _, err := renderOnce(t, cl, req); !errors.Is(err, client.ErrWorldFailed) {
				t.Fatalf("frame against stalled rank: err = %v, want ErrWorldFailed", err)
			}
			// The watchdog, not the 30s stall (nor any client deadline), must be
			// what fails the frame.
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("wedged frame took %v to fail; watchdog should fire near 300ms", elapsed)
			}

			f, err := renderOnce(t, cl, req)
			if err != nil {
				t.Fatalf("frame after watchdog restart: %v", err)
			}
			if !bytes.Equal(f.Gray, ref) {
				t.Error("frame after watchdog restart differs from fault-free reference")
			}
			if f.Stats.Quality != server.QualityFull || f.Stats.Degraded {
				t.Errorf("frame after watchdog restart reported quality=%q degraded=%v", f.Stats.Quality, f.Stats.Degraded)
			}
			if n := srv.WorldRestarts(); n != 1 {
				t.Errorf("WorldRestarts() = %d, want exactly 1", n)
			}

			cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			waitNoLeaks(t, before)
		})
	}
}

// TestChaosSoakWithRetries drives sequential frames through a world
// with probabilistic connection resets, retrying the transient typed
// failures (world_failed, overloaded) the way a caller would. Every
// frame must eventually land byte-identical to the fault-free
// reference, whatever mix of resets and world restarts the seed
// produces.
func TestChaosSoakWithRetries(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 4
	srv, cl, _ := chaosServer(t, server.Config{
		P: p, QueueDepth: 16, MaxInFlight: 2,
		DefaultDeadline: time.Minute,
		FrameTimeout:    10 * time.Second,
	}, faultinject.Config{Seed: 7, ResetProb: 0.01})

	req := server.Request{Dataset: "cube", Method: "bsbr", Width: 48, Height: 48, RotY: 15}
	ref := referenceGray(t, req, p)

	for i := 0; i < 12; i++ {
		var f *client.Frame
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			if f, err = renderOnce(t, cl, req); !errors.Is(err, client.ErrWorldFailed) && !errors.Is(err, client.ErrOverloaded) {
				break
			}
			time.Sleep(time.Duration(min(5<<attempt, 100)) * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("frame %d exhausted its retry budget: %v", i, err)
		}
		if !bytes.Equal(f.Gray, ref) {
			t.Fatalf("frame %d differs from fault-free reference", i)
		}
	}
	t.Logf("soak survived %d world restarts", srv.WorldRestarts())

	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}
