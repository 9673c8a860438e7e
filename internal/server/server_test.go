package server_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/server"
)

func startServer(t testing.TB, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := server.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(srv.Addr().String())
	t.Cleanup(func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, cl
}

func TestBadRequestsAreTyped(t *testing.T) {
	_, cl := startServer(t, server.Config{P: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cases := []server.Request{
		{Dataset: "nope", Method: "bsbrc", Width: 32, Height: 32},
		{Dataset: "cube", Method: "nope", Width: 32, Height: 32},
		{Dataset: "cube", Method: "bsbrc", Width: 0, Height: 32},
		{Dataset: "cube", Method: "bsbrc", Width: 32, Height: -3},
	}
	for _, req := range cases {
		if _, err := cl.Render(ctx, req); !errors.Is(err, client.ErrBadRequest) {
			t.Errorf("request %+v: got %v, want ErrBadRequest", req, err)
		}
	}
	// The connection stays usable after typed errors.
	if _, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32}); err != nil {
		t.Errorf("valid request after typed errors: %v", err)
	}
}

// An unknown method must be rejected at admission with the typed
// bad-request code, before any rank does work, and the message must
// list the methods that exist.
func TestUnknownMethodRejectedAtAdmission(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 2})
	for _, m := range append([]string{"bsqrc"}, retiredMethods...) {
		_, err := cl.Render(context.Background(),
			server.Request{Dataset: "cube", Method: m, Width: 32, Height: 32})
		if !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("method %q: want ErrBadRequest, got %v", m, err)
		}
		if !strings.Contains(err.Error(), "unknown compositor") || !strings.Contains(err.Error(), "have ") {
			t.Errorf("method %q: error %q should name the problem and the methods that exist", m, err)
		}
	}
	if n := srv.WorldRestarts(); n != 0 {
		t.Errorf("world restarted %d times over bad requests", n)
	}
}

// A queued request whose deadline expires before dispatch is cancelled
// at the scheduler, never entering the rank pool.
func TestQueuedDeadlineCancels(t *testing.T) {
	_, cl := startServer(t, server.Config{P: 2, MaxInFlight: 1, QueueDepth: 8})
	// The occupying frames must outlast the short deadline below: a
	// dense dataset, shaded (macro-cell skipping removes little work on
	// head, and shading triples the per-sample cost), at high resolution.
	heavy := server.Request{Dataset: "head", Method: "bsbrc", Width: 768, Height: 768, Shaded: true}
	// Warm the dataset cache first: admission builds the plan (including
	// first-use dataset generation) before enqueueing, and the heavy
	// frames must be IN the queue, not in admission, when the
	// short-deadline request arrives.
	{
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		warm := heavy
		warm.Width, warm.Height = 32, 32
		if _, err := cl.Render(ctx, warm); err != nil {
			t.Fatalf("warm-up frame: %v", err)
		}
		cancel()
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one in flight, one queued ahead
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if _, err := cl.Render(ctx, heavy); err != nil {
				t.Errorf("heavy frame: %v", err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the heavy frames occupy the pipeline
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := cl.Render(ctx, server.Request{
		Dataset: "head", Method: "bsbrc", Width: 32, Height: 32, DeadlineMS: 1,
	})
	if !errors.Is(err, client.ErrDeadline) {
		t.Errorf("short-deadline queued request: got %v, want ErrDeadline", err)
	}
	wg.Wait()
}

// TestOversizeGeometryRejected: request geometry is bounded at
// admission. A frame no client could read back (its gray payload would
// exceed MaxReplyFrame) is a typed bad_request before any plan exists —
// it used to allocate P full-size images first, so the bound on what
// the rejections may allocate is the point of the test.
func TestOversizeGeometryRejected(t *testing.T) {
	_, cl := startServer(t, server.Config{P: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range []server.Request{
		{Dataset: "cube", Width: 100000, Height: 100000},
		{Dataset: "cube", Width: 100000, Height: 100000, Quality: server.QualityPreview, DegradeOK: true},
		{Dataset: "cube", Width: 1 << 14, Height: 1<<14 + 1},
		{Dataset: "cube", Width: 1 << 32, Height: 1 << 32}, // product wraps int64 to 0
	} {
		if _, err := cl.Render(ctx, req); !errors.Is(err, client.ErrBadRequest) {
			t.Errorf("%dx%d: got %v, want ErrBadRequest", req.Width, req.Height, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<20 {
		t.Errorf("rejecting four oversize requests allocated %d MiB", grown>>20)
	}
}
