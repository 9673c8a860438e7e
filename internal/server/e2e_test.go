package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/core"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/render"
	"sortlast/internal/server"
)

// referenceGray renders the same configuration through the one-shot
// harness path and returns the row-major 8-bit gray image.
func referenceGray(t *testing.T, req server.Request, p int) []byte {
	t.Helper()
	_, img, err := harness.RunWithImage(harness.Config{
		Dataset: req.Dataset, Method: req.Method,
		Width: req.Width, Height: req.Height,
		P:    p,
		RotX: req.RotX, RotY: req.RotY,
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

// TestServeEndToEnd is the acceptance test of the serving tier: a
// resident 4-rank world serves 16 concurrent requests across four
// compositing methods, every image byte-identical to a one-shot harness
// run; an over-capacity burst is rejected with typed overload errors
// rather than hanging; /metrics reports the traffic; shutdown leaks no
// goroutines.
func TestServeEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 4
	srv, err := server.Start(server.Config{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		P: p, QueueDepth: 16, MaxInFlight: 2,
		DefaultDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(srv.Addr().String())

	// 16 concurrent requests: 4 methods x 2 viewpoints x 2 repeats.
	methods := []string{"bsbrc", "bs", "bsbr", "bslc"}
	var reqs []server.Request
	for _, m := range methods {
		for _, rot := range []float64{0, 30} {
			r := server.Request{Dataset: "cube", Method: m, Width: 64, Height: 64, RotY: rot}
			reqs = append(reqs, r, r)
		}
	}
	refs := make([][]byte, len(reqs))
	for i, r := range reqs {
		refs[i] = referenceGray(t, r, p)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r server.Request) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			f, err := cl.Render(ctx, r)
			if err != nil {
				errCh <- fmt.Errorf("request %d (%+v): %w", i, r, err)
				return
			}
			if f.Width != r.Width || f.Height != r.Height {
				errCh <- fmt.Errorf("request %d: got %dx%d frame", i, f.Width, f.Height)
				return
			}
			if !bytes.Equal(f.Gray, refs[i]) {
				errCh <- fmt.Errorf("request %d (%+v): image differs from one-shot harness run", i, r)
			}
		}(i, r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatal("concurrent serving produced wrong frames")
	}

	// Over-capacity burst: with 2 in flight + 16 queued, 40 concurrent
	// heavy frames must produce typed overload rejections — and every
	// request must be answered (no hangs).
	var overloaded, served atomic.Int64
	burst := server.Request{Dataset: "cube", Method: "bsbrc", Width: 384, Height: 384}
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			_, err := cl.Render(ctx, burst)
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, client.ErrOverloaded):
				overloaded.Add(1)
			default:
				t.Errorf("burst request: unexpected error %v", err)
			}
		}()
	}
	wg.Wait()
	if overloaded.Load() == 0 {
		t.Errorf("burst of 40 against capacity 18 produced no overload errors (served=%d)", served.Load())
	}
	if served.Load() == 0 {
		t.Error("burst produced no successful frames")
	}

	// Observability surface: /healthz is OK and /metrics shows traffic.
	httpBase := "http://" + srv.HTTPAddr().String()
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
	// Each method served its 4 correctness frames; bsbrc additionally
	// served the admitted part of the burst.
	for _, m := range methods {
		var n int
		pattern := fmt.Sprintf("renderd_frames_total{method=%q} ", m)
		i := bytes.Index(body, []byte(pattern))
		if i < 0 {
			t.Errorf("metrics missing %q", pattern)
			continue
		}
		fmt.Sscanf(string(body[i+len(pattern):]), "%d", &n)
		if n < 4 {
			t.Errorf("renderd_frames_total{method=%q} = %d, want >= 4", m, n)
		}
	}
	for _, substr := range []string{
		"renderd_request_errors_total{code=\"overloaded\"}",
		"renderd_wire_bytes_total",
		"renderd_frame_latency_seconds_bucket{le=\"+Inf\"}",
	} {
		if !bytes.Contains(body, []byte(substr)) {
			t.Errorf("metrics missing %q", substr)
		}
	}
	if bytes.Contains(body, []byte("renderd_wire_bytes_total 0\n")) {
		t.Error("wire byte counter stayed zero after serving frames")
	}

	// Drain and verify nothing leaks.
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

// TestServedWireBytesMatchOneShot pins what a reply's WireBytes is: the
// compositing bytes every rank received for that frame (fold and
// stages, not the gather) — the sum of the per-rank counters of the
// same configuration's compositor run once on a fresh world, for every
// method, at a power-of-two and a folded rank count. The one-shot count
// calls the compositor directly, so it shares no accounting with the
// server. A fresh server's renderd_wire_bytes_total is the sum of the
// WireBytes of the replies it served.
func TestServedWireBytesMatchOneShot(t *testing.T) {
	for _, p := range []int{3, 4} {
		srv, cl := startServer(t, server.Config{P: p, HTTPAddr: "127.0.0.1:0", DefaultDeadline: time.Minute})
		var served int64
		for _, method := range core.Names() {
			req := server.Request{Dataset: "cube", Method: method, Width: 64, Height: 64, RotY: 30}
			plan, err := harness.NewPlan(harness.Config{
				Dataset: req.Dataset, Method: req.Method, Width: req.Width, Height: req.Height,
				P: p, RotY: req.RotY,
			})
			if err != nil {
				t.Fatal(err)
			}
			var received atomic.Int64
			err = mp.Run(p, mp.Options{}, func(c mp.Comm) error {
				res, err := plan.Comp.Composite(c, plan.Dec, plan.Cam.Dir, plan.RenderRank(c.Rank()))
				if err == nil {
					received.Add(int64(res.Stats.BytesReceived()))
				}
				return err
			})
			if err != nil {
				t.Fatalf("one-shot %s P=%d: %v", method, p, err)
			}
			want := received.Load()
			f, err := renderOnce(t, cl, req)
			if err != nil {
				t.Fatalf("served %s P=%d: %v", method, p, err)
			}
			if f.Stats.WireBytes != want || want == 0 {
				t.Errorf("%s P=%d: reply reports %d wire bytes, the one-shot run's ranks received %d",
					method, p, f.Stats.WireBytes, want)
			}
			served += f.Stats.WireBytes
		}
		_, body := httpGet(t, "http://"+srv.HTTPAddr().String()+"/metrics")
		if want := fmt.Sprintf("\nrenderd_wire_bytes_total %d\n", served); !bytes.Contains(body, []byte(want)) {
			t.Errorf("P=%d: /metrics lacks %q, the sum of the replies' WireBytes", p, want[1:len(want)-1])
		}
	}
}
