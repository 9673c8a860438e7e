package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/faultinject"
	"sortlast/internal/fleet"
	"sortlast/internal/server"
	"sortlast/internal/trace"
)

func gatewayGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// TestFleetTracedHedgedRequest is the tracing acceptance test (and the
// CI smoke): a sampled request that gets hedged past a stalled replica
// comes back with ONE merged trace — the gateway's routing spans, both
// dispatch attempts as sibling tracks, and the winning replica's
// rank-level span tree, all under the caller's trace ID. The same
// request is retained by the gateway flight recorder, exports as
// Perfetto JSON, and once the stalled replica's watchdog reaps the
// losing dispatch, a later flight export shows the loser's final
// outcome too.
func TestFleetTracedHedgedRequest(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 2
	inj := faultinject.New(faultinject.Config{Seed: 7})
	cfg := fleet.Config{
		Addr:     "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
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

	// Warm replica 0's latency window past the cold-start sample count so
	// the hedge threshold drops to the measured p99.
	for i := 0; i < 24; i++ {
		req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotY: float64(i) * 3.7}
		if _, err := cl.Render(ctx, req); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}

	// The gateway hands a reply to the client before the dispatch that
	// produced it decrements its replica's outstanding count, so the last
	// warm-up reply can be in hand while replica 0 still reads 1 — and
	// the sampled request would then be routed to idle replica 1 and never
	// hedge. Wait until every replica is idle before wedging one.
	idle := func() bool {
		for _, r := range g.Stats().Replicas {
			if r.Outstanding != 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !idle(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replicas still have outstanding dispatches 10 s after the last warm-up reply")
		}
	}

	// Wedge replica 0's world and send one sampled request. The hedge
	// must rescue it; the reply carries the merged trace.
	inj.Stall(1, 30*time.Second)
	tc := trace.NewContext()
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotY: 271.3, Trace: tc}
	f, err := cl.Render(ctx, req)
	if err != nil {
		t.Fatalf("sampled request against stalled replica: %v", err)
	}
	if !f.Stats.Hedged {
		t.Error("winning reply not flagged as hedged")
	}
	if f.Stats.TraceID != tc.TraceID {
		t.Errorf("Stats.TraceID = %q, want %q", f.Stats.TraceID, tc.TraceID)
	}

	w := f.Trace
	if w == nil {
		t.Fatal("sampled request returned no merged trace")
	}
	if w.TraceID != tc.TraceID {
		t.Errorf("merged trace ID = %q, want %q", w.TraceID, tc.TraceID)
	}
	if len(w.Procs) < 2 {
		t.Fatalf("merged trace has %d procs, want gateway + at least one replica", len(w.Procs))
	}
	gw := w.Procs[0]
	if gw.Name != "gateway" {
		t.Fatalf("first proc = %q, want gateway", gw.Name)
	}
	kinds := map[string]int{}
	stages := map[string]string{}
	serve := false
	for _, tr := range gw.Tracks {
		if tr.Name == "request" {
			for _, s := range tr.Spans {
				if s.Name == "serve" {
					serve = true
				}
			}
			continue
		}
		for _, s := range tr.Spans {
			kind, _, _ := strings.Cut(s.Name, " ")
			kinds[kind]++
			stages[s.Name] = s.Stage
		}
	}
	if !serve {
		t.Error("gateway request track has no serve span")
	}
	if kinds["primary"] != 1 || kinds["hedge"] != 1 {
		t.Fatalf("attempt kinds = %v, want one primary and one hedge", kinds)
	}
	// Exactly one attempt won; which kind depends on timing (a
	// slow-but-healthy dispatch can outlast the hedge delay and still
	// beat the hedge), so assert on stages, not kinds: one "ok" winner,
	// the other attempt present in some state.
	oks := 0
	for _, stage := range stages {
		if stage == "ok" {
			oks++
		}
	}
	if oks < 1 {
		t.Fatalf("attempt stages = %v, want a completed winner", stages)
	}

	// The winning replica's tree is nested as its own process, rank
	// tracks included.
	renderSpans := 0
	for _, proc := range w.Procs[1:] {
		if !strings.HasPrefix(proc.Name, "replica ") {
			t.Errorf("nested proc %q not replica-prefixed", proc.Name)
		}
		for _, tr := range proc.Tracks {
			if !strings.HasPrefix(tr.Name, "rank ") {
				continue
			}
			for _, s := range tr.Spans {
				if s.Name == trace.SpanRender {
					renderSpans++
				}
			}
		}
	}
	if renderSpans == 0 {
		t.Error("merged trace has no rank-level render spans from the winning replica")
	}

	// Gateway sidecar: the request is on /debug/flight (kept by the
	// hedged rule), exports as Perfetto JSON spanning both processes, and
	// pprof answers on the gateway mux.
	base := "http://" + g.HTTPAddr().String()
	code, body := gatewayGet(t, base+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight list: status %d", code)
	}
	var list struct {
		Entries []struct {
			TraceID string  `json:"trace_id"`
			Outcome string  `json:"outcome"`
			Hedged  bool    `json:"hedged"`
			Reason  string  `json:"reason"`
			MS      float64 `json:"ms"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("flight list JSON: %v", err)
	}
	found := false
	for _, e := range list.Entries {
		if e.TraceID == tc.TraceID {
			found = true
			if e.Outcome != "ok" || !e.Hedged || e.Reason != "hedged" {
				t.Errorf("flight entry = %+v, want ok/hedged/hedged", e)
			}
			if e.MS != f.Stats.TotalMS {
				t.Errorf("flight entry carries %v ms, the reply %v ms: want one total", e.MS, f.Stats.TotalMS)
			}
		}
	}
	if !found {
		t.Fatalf("flight list missing trace %s: %+v", tc.TraceID, list.Entries)
	}

	exportFile := func() trace.File {
		t.Helper()
		code, body := gatewayGet(t, base+"/debug/flight?trace="+tc.TraceID)
		if code != http.StatusOK {
			t.Fatalf("flight export: status %d", code)
		}
		var file trace.File
		if err := json.Unmarshal(body, &file); err != nil {
			t.Fatalf("flight export JSON: %v", err)
		}
		return file
	}
	file := exportFile()
	if file.TraceID != tc.TraceID {
		t.Errorf("flight export traceId = %q, want %q", file.TraceID, tc.TraceID)
	}
	pids := map[int]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.PID] = true
		}
	}
	if len(pids) < 2 {
		t.Errorf("flight export spans %d processes, want gateway + replica", len(pids))
	}

	// The losing attempt is usually still in flight when the winner
	// replies. Once it resolves — the stalled replica's 1s watchdog fails
	// the world under it, the gateway's dispatch context is cancelled, or
	// the replica's client even retries it to success through the world
	// restart — a fresh flight export (built lazily from the live attempt
	// set) shows its terminal stage. Poll until no attempt is in flight.
	attemptStages := func(file trace.File) map[string]string {
		out := map[string]string{}
		for _, ev := range file.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			kind, _, _ := strings.Cut(ev.Name, " ")
			if kind != "primary" && kind != "hedge" && kind != "retry" {
				continue
			}
			stage, _ := ev.Args["stage"].(string)
			out[ev.Name] = stage
		}
		return out
	}
	deadline := time.Now().Add(20 * time.Second)
	var last map[string]string
	for time.Now().Before(deadline) {
		last = attemptStages(exportFile())
		inFlight := false
		for _, stage := range last {
			if stage == "in-flight" || stage == "" {
				inFlight = true
			}
		}
		if !inFlight && len(last) >= 2 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(last) < 2 {
		t.Fatalf("flight export retains %d attempt spans, want both: %v", len(last), last)
	}
	for name, stage := range last {
		if stage == "in-flight" || stage == "" {
			t.Errorf("attempt %q never resolved: stage %q", name, stage)
		}
	}

	if code, _ := gatewayGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("gateway pprof index: status %d, want 200", code)
	}
	// Exemplars ride the OpenMetrics exposition only; a classic scrape
	// must stay clean or a stock Prometheus would fail the whole scrape.
	omReq, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	omReq.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	resp, err := http.DefaultClient.Do(omReq)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Errorf("OpenMetrics scrape answered Content-Type %q", ct)
	}
	if !strings.Contains(string(om), `trace_id="`+tc.TraceID+`"`) {
		t.Error("gateway OpenMetrics scrape missing the request's exemplar")
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Error("gateway OpenMetrics scrape missing # EOF trailer")
	}
	_, metrics := gatewayGet(t, base+"/metrics")
	if strings.Contains(string(metrics), "trace_id") {
		t.Error("gateway classic scrape carries exemplars")
	}
	if !strings.Contains(string(metrics), "fleet_flight_entries ") {
		t.Error("gateway metrics missing fleet_flight_entries gauge")
	}

	cl.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

// TestFleetTracingDisabled pins the gateway opt-out: sampled requests
// still render but get no span tree, no trace IDs appear in stats, and
// the flight endpoint answers 404.
func TestFleetTracingDisabled(t *testing.T) {
	g, err := fleet.Start(fleet.Config{
		Addr:     "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Replicas: []fleet.ReplicaConfig{
			{Server: &server.Config{P: 2, QueueDepth: 8, MaxInFlight: 2, DefaultDeadline: time.Minute}},
		},
		DisableTracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := g.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	cl := client.New(g.Addr().String())
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	f, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32, Trace: trace.NewContext()})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace != nil {
		t.Error("tracing-disabled gateway returned a span tree")
	}
	if f.Stats.TraceID != "" {
		t.Errorf("tracing-disabled gateway stamped TraceID %q", f.Stats.TraceID)
	}
	base := "http://" + g.HTTPAddr().String()
	if code, _ := gatewayGet(t, base+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("flight endpoint with tracing disabled: status %d, want 404", code)
	}
}
