package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/core"
	"sortlast/internal/faultinject"
	"sortlast/internal/fleet"
	"sortlast/internal/server"
)

// upscaleRef applies the client's nearest-neighbor preview upscale to a
// reference gray image, so preview replies can be checked byte-exactly.
func upscaleRef(gray []byte, sw, sh, w, h int) []byte {
	out := make([]byte, w*h)
	for y := 0; y < h; y++ {
		src := gray[(y*sh/h)*sw:]
		dst := out[y*w : (y+1)*w]
		for x := range dst {
			dst[x] = src[x*sw/w]
		}
	}
	return out
}

// TestQualityContract pins both quality contracts end to end against
// one resident world: full is byte-identical to the seed behavior (with
// and without the explicit name, and with DegradeOK set under no
// contention), preview renders quarter resolution — at most 30 % of the
// full frame's ray samples, which is what it buys in latency — and the
// client upscales it to the requested geometry, and an unknown name is a
// bad request. The scene is the head, where samples scale with pixels.
// On the cube at 64² the kernel casts only the few dozen rays that meet
// the occupied hull, about one sample each, and the preview's share of
// them is set by the silhouette's edge (12 of 32 rays), not by area.
func TestQualityContract(t *testing.T) {
	const p, w, h = 4, 64, 64
	srv, err := server.Start(server.Config{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", P: p,
		QueueDepth: 8, MaxInFlight: 2, DefaultDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	cl := client.New(srv.Addr().String())
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// samples reads the ray samples evaluated so far off the sidecar.
	samples := func() int {
		_, body := httpGet(t, "http://"+srv.HTTPAddr().String()+"/metrics")
		const series = `renderd_render_samples_total{outcome="evaluated"} `
		i := bytes.Index(body, []byte(series))
		if i < 0 {
			t.Fatalf("metrics missing %s", series)
		}
		var n int
		fmt.Sscanf(string(body[i+len(series):]), "%d", &n)
		return n
	}

	base := server.Request{Dataset: "head", Method: "bsbrc", Width: w, Height: h, RotY: 30}
	ref := referenceGray(t, base, p)

	// Full contract: "" and "full" and DegradeOK-without-contention all
	// return the exact seed bytes and report full quality.
	var fullSamples int
	for _, req := range []server.Request{
		base,
		{Dataset: "head", Method: "bsbrc", Width: w, Height: h, RotY: 30, Quality: "full"},
		{Dataset: "head", Method: "bsbrc", Width: w, Height: h, RotY: 30, DegradeOK: true},
	} {
		before := samples()
		f, err := cl.Render(ctx, req)
		if err != nil {
			t.Fatalf("render %+v: %v", req, err)
		}
		fullSamples = samples() - before
		if !bytes.Equal(f.Gray, ref) {
			t.Errorf("quality=%q degrade_ok=%v: image differs from the seed render", req.Quality, req.DegradeOK)
		}
		if f.Stats.Quality != server.QualityFull || f.Stats.Degraded {
			t.Errorf("full contract reported quality=%q degraded=%v", f.Stats.Quality, f.Stats.Degraded)
		}
	}

	// Preview: the server renders the quarter-resolution geometry and the
	// client upscales, so the reply equals the upscaled small reference.
	pw, ph := server.PreviewDims(w, h)
	small := referenceGray(t, server.Request{Dataset: "head", Method: "bsbrc", Width: pw, Height: ph, RotY: 30}, p)
	prev := base
	prev.Quality = server.QualityPreview
	before := samples()
	fp, err := cl.Render(ctx, prev)
	if err != nil {
		t.Fatalf("preview render: %v", err)
	}
	if got := samples() - before; got == 0 || 10*got > 3*fullSamples {
		t.Errorf("preview evaluated %d ray samples, full %d: want more than none and at most 30 %%", got, fullSamples)
	} else {
		t.Logf("preview evaluated %d ray samples, full %d", got, fullSamples)
	}
	if fp.Width != w || fp.Height != h {
		t.Fatalf("preview reply is %dx%d after upscale, want %dx%d", fp.Width, fp.Height, w, h)
	}
	if fp.Stats.Quality != server.QualityPreview || fp.Stats.Degraded {
		t.Errorf("preview reply reported quality=%q degraded=%v", fp.Stats.Quality, fp.Stats.Degraded)
	}
	if !bytes.Equal(fp.Gray, upscaleRef(small, pw, ph, w, h)) {
		t.Error("preview reply differs from the upscaled quarter-resolution reference")
	}

	// Unknown names fail validation instead of silently rendering full.
	bad := base
	bad.Quality = "ultra"
	if _, err := cl.Render(ctx, bad); !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("quality=ultra: %v, want ErrBadRequest", err)
	}
}

// TestDegradeUnderOverload saturates a capacity-2 server (1 in flight,
// 1 queued) with concurrent DegradeOK requests: every request must be
// answered with a frame — degraded to preview, never rejected with
// overloaded — with the delivered quality populated, and the admission
// degrade path must show up in /metrics. A stalled rank holds the world
// until the burst has found the queue full, so the overflow is certain
// however fast a frame renders; then the stall lifts and the burst
// drains.
func TestDegradeUnderOverload(t *testing.T) {
	inj := faultinject.New(faultinject.Config{})
	srv, err := server.Start(server.Config{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", P: 2,
		QueueDepth: 1, MaxInFlight: 1, DefaultDeadline: 2 * time.Minute,
		Chaos: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	cl := client.New(srv.Addr().String())
	defer cl.Close()
	metrics := func() []byte {
		resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	const noDegrade = `renderd_degraded_total{path="admission",to="preview"} 0`

	// Every message rank 1 sends or receives waits 200 ms, far inside
	// the 60 s frame watchdog.
	inj.Stall(1, 200*time.Millisecond)

	const n = 10
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 96, Height: 96, DegradeOK: true}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		degraded int
		quals    = map[string]int{}
	)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			f, err := cl.Render(ctx, req)
			if err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			defer mu.Unlock()
			quals[f.Stats.Quality]++
			if f.Stats.Degraded {
				degraded++
				if f.Stats.Quality != server.QualityPreview {
					errCh <- fmt.Errorf("degraded reply claims quality %q, want preview", f.Stats.Quality)
				}
			}
		}()
	}
	for deadline := time.Now().Add(time.Minute); bytes.Contains(metrics(), []byte(noDegrade)); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no request degraded within a minute of the burst")
		}
	}
	inj.Stall(1, 0)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if errors.Is(err, client.ErrOverloaded) {
			t.Errorf("DegradeOK request was rejected with overloaded: %v", err)
			continue
		}
		t.Errorf("burst request failed: %v", err)
	}
	if degraded == 0 {
		t.Errorf("no request degraded under a %d-deep burst against capacity 2 (qualities: %v)", n, quals)
	}
	if quals[""] > 0 {
		t.Errorf("%d replies left the delivered quality empty", quals[""])
	}

	body := metrics()
	if !bytes.Contains(body, []byte(`renderd_degraded_total{path="admission",to="preview"}`)) {
		t.Error("metrics missing the admission degrade counter")
	}
	if bytes.Contains(body, []byte(noDegrade)) {
		t.Error("admission degrade counter zero after a degrading burst")
	}
	if !bytes.Contains(body, []byte(`renderd_quality_delivered_total{quality="full"}`)) {
		t.Error("metrics missing the delivered-quality counter family")
	}
}

// Names this tree used to accept and clients built against it may still
// send: the lossy quality contract between full and preview, the method
// that asked the server to pick a compositor per frame, and the five
// compositors the method censuses retired.
const retiredQuality = `approx`

var retiredMethods = []string{`auto`, `pipeline`, `bintree`, `bsvc`, `bsbrlc`, `bsdpf`}

// TestRetiredQualityIsBadRequest pins what such a client gets for each
// retired name: a typed bad_request listing the names that exist, from
// renderd directly and through the gateway — which lets the unknown
// name miss the cache and relays the replica's answer without retrying
// it on the other replica or caching anything.
func TestRetiredQualityIsBadRequest(t *testing.T) {
	mk := func() *server.Config {
		return &server.Config{P: 2, QueueDepth: 8, MaxInFlight: 1, DefaultDeadline: time.Minute}
	}
	srv, direct := startServer(t, *mk())
	gw, err := fleet.Start(fleet.Config{
		Addr:     "127.0.0.1:0",
		Replicas: []fleet.ReplicaConfig{{Server: mk()}, {Server: mk()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	via := client.New(gw.Addr().String())
	defer func() {
		via.Close()
		gw.Shutdown(context.Background())
	}()

	byQuality := server.Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, Quality: retiredQuality}
	type retiredName struct {
		name string
		req  server.Request
		want []string // the message names the retired name once and everything that exists
	}
	retired := []retiredName{
		{retiredQuality, byQuality, []string{server.QualityFull, server.QualityPreview}},
	}
	for _, m := range retiredMethods {
		byMethod := server.Request{Dataset: "cube", Method: m, Width: 32, Height: 32}
		retired = append(retired, retiredName{m, byMethod, []string{"have " + strings.Join(core.Names(), ", ")}})
	}
	tiers := []struct {
		name string
		cl   *client.Client
	}{{"renderd", direct}, {"gateway", via}}
	for _, rt := range retired {
		for _, tier := range tiers {
			for _, degradeOK := range []bool{false, true} {
				req := rt.req
				req.DegradeOK = degradeOK
				_, err := renderOnce(t, tier.cl, req)
				var ce *client.Error
				if !errors.As(err, &ce) || ce.Code != server.CodeBadRequest {
					t.Errorf("%s %s degrade_ok=%v: err = %v, want a typed bad_request", rt.name, tier.name, degradeOK, err)
					continue
				}
				if n := strings.Count(ce.Msg, rt.name); n != 1 {
					t.Errorf("%s %s: message %q names the retired name %d times, want once (the echo, not an offer)", rt.name, tier.name, ce.Msg, n)
				}
				for _, want := range rt.want {
					if !strings.Contains(ce.Msg, want) {
						t.Errorf("%s %s: message %q does not name %q", rt.name, tier.name, ce.Msg, want)
					}
				}
			}
		}
	}
	if n := srv.WorldRestarts(); n != 0 {
		t.Errorf("renderd restarted its world %d times over a bad request", n)
	}
	sent := int64(2 * len(retired)) // per retired name: DegradeOK off and on through the gateway
	st := gw.Stats()
	if st.CacheHits != 0 || st.CacheMisses != sent || st.CacheEntries != 0 || st.Retries != 0 || st.Errors != sent {
		t.Errorf("gateway stats after %d retired-name requests: %+v; want every one a miss and an error, nothing cached or retried", sent, st)
	}
}
