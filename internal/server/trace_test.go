package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sortlast/internal/server"
	"sortlast/internal/trace"
)

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// httpGetOpenMetrics scrapes url negotiating the OpenMetrics exposition
// (the format exemplars ride on), the way Prometheus itself asks.
func httpGetOpenMetrics(t *testing.T, url string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Fatalf("OpenMetrics scrape of %s answered Content-Type %q", url, ct)
	}
	return body
}

// TestTraceSidecar covers the serving-tier observability surface: the
// /debug/trace/last endpoint 404s before any frame, serves
// Perfetto-loadable JSON with one track per rank after one, the phase
// histograms on /metrics count the frame, and the pprof index answers.
func TestTraceSidecar(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 4, HTTPAddr: "127.0.0.1:0"})
	base := "http://" + srv.HTTPAddr().String()

	if code, _ := httpGet(t, base+"/debug/trace/last"); code != http.StatusNotFound {
		t.Fatalf("trace endpoint before any frame: status %d, want 404", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 64, Height: 64, RotY: 30}
	if _, err := cl.Render(ctx, req); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, base+"/debug/trace/last")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint after a frame: status %d", code)
	}
	var f trace.File
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	tids := map[int]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.TID] = true
		}
	}
	if len(tids) != 4 {
		t.Errorf("trace has %d rank tracks, want 4", len(tids))
	}

	_, metrics := httpGet(t, base+"/metrics")
	for _, phase := range []string{"render", "composite", "gather"} {
		want := `renderd_phase_latency_seconds_count{phase="` + phase + `"} 1`
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if code, _ := httpGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index: status %d, want 200", code)
	}
}

// TestTracingDisabled pins the opt-out: frames still serve, the trace
// and flight endpoints stay 404, and the phase histograms, which read
// the frame record rather than spans, still count the frame.
func TestTracingDisabled(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 2, HTTPAddr: "127.0.0.1:0", DisableTracing: true})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.HTTPAddr().String()
	if code, _ := httpGet(t, base+"/debug/trace/last"); code != http.StatusNotFound {
		t.Errorf("trace endpoint with tracing disabled: status %d, want 404", code)
	}
	if code, _ := httpGet(t, base+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("flight endpoint with tracing disabled: status %d, want 404", code)
	}
	_, metrics := httpGet(t, base+"/metrics")
	for _, phase := range []string{"render", "composite", "gather"} {
		want := `renderd_phase_latency_seconds_count{phase="` + phase + `"} 1`
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q with tracing disabled", want)
		}
	}
	// A sampled request against a tracing-disabled server still renders,
	// just without a span tree.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	f, err := cl.Render(ctx2, server.Request{Dataset: "cube", Width: 32, Height: 32, Trace: trace.NewContext()})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace != nil {
		t.Error("tracing-disabled server returned a span tree")
	}
}

// TestOneTotalPerReply pins the frame record under an 8-caller closed
// loop (BenchmarkServeClosedLoop's shape): on every reply the queue wait
// and the slowest rank's render wall lie inside the one total, and
// afterwards each phase histogram has counted exactly the frames served,
// with tracing on and with it off.
func TestOneTotalPerReply(t *testing.T) {
	const callers, perCaller = 8, 4
	for _, noTrace := range []bool{false, true} {
		t.Run(fmt.Sprintf("no-trace=%v", noTrace), func(t *testing.T) {
			srv, cl := startServer(t, server.Config{P: 2, HTTPAddr: "127.0.0.1:0", DisableTracing: noTrace})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perCaller; i++ {
						req := server.Request{Dataset: "head", Width: 64, Height: 64, RotY: float64((w*perCaller + i) % 8 * 10)}
						f, err := cl.Render(ctx, req)
						if err != nil {
							t.Error(err)
							return
						}
						// The bound is exact in nanoseconds; 1e-9 ms absorbs
						// the rounding of three separate conversions to ms.
						if st := f.Stats; st.QueueMS < 0 || st.RenderMS <= 0 || st.QueueMS+st.RenderMS > st.TotalMS+1e-9 {
							t.Errorf("reply stats queue %v + render %v ms outside total %v ms", st.QueueMS, st.RenderMS, st.TotalMS)
						}
					}
				}()
			}
			wg.Wait()
			_, metrics := httpGet(t, "http://"+srv.HTTPAddr().String()+"/metrics")
			served := callers * perCaller
			want := []string{fmt.Sprintf("renderd_frame_latency_seconds_count %d", served)}
			for _, phase := range []string{"render", "composite", "gather"} {
				want = append(want, fmt.Sprintf("renderd_phase_latency_seconds_count{phase=%q} %d", phase, served))
			}
			for _, w := range want {
				if !strings.Contains(string(metrics), w+"\n") {
					t.Errorf("metrics missing %q", w)
				}
			}
		})
	}
}

// TestSampledRequestReturnsTrace covers the tentpole's single-server
// leg: a request carrying a sampled trace context gets the server's
// span tree back in the reply — the renderd process with a server-level
// queue/pipeline track plus one track per rank, all under the caller's
// trace ID — and the same request is queryable on /debug/flight.
func TestSampledRequestReturnsTrace(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 4, HTTPAddr: "127.0.0.1:0"})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	tc := trace.NewContext()
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 64, Height: 64, Trace: tc}
	f, err := cl.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.TraceID != tc.TraceID {
		t.Errorf("Stats.TraceID = %q, want %q", f.Stats.TraceID, tc.TraceID)
	}
	w := f.Trace
	if w == nil {
		t.Fatal("sampled request returned no span tree")
	}
	if w.TraceID != tc.TraceID {
		t.Errorf("wire trace ID = %q, want %q", w.TraceID, tc.TraceID)
	}
	if len(w.Procs) != 1 || w.Procs[0].Name != "renderd" {
		t.Fatalf("procs = %+v", w.Procs)
	}
	tracks := map[string][]trace.WireSpan{}
	for _, tr := range w.Procs[0].Tracks {
		tracks[tr.Name] = tr.Spans
	}
	if len(tracks) != 5 { // server + 4 ranks
		t.Fatalf("tracks = %d (%v), want 5", len(tracks), tracks)
	}
	names := map[string]bool{}
	for _, s := range tracks["server"] {
		names[s.Name] = true
	}
	if !names["serve"] || !names["queue"] || !names["pipeline"] {
		t.Errorf("server track spans = %v, want serve+queue+pipeline", names)
	}
	rank := map[string]bool{}
	for _, s := range tracks["rank 0"] {
		rank[s.Name] = true
	}
	for _, want := range []string{trace.SpanRender, trace.SpanCompositing} {
		if !rank[want] {
			t.Errorf("rank 0 track missing %q (has %v)", want, rank)
		}
	}
	// RenderMS is the slowest rank's render wall, which brackets every
	// rank's render span.
	for name, spans := range tracks {
		for _, s := range spans {
			if s.Name == trace.SpanRender && s.DurUS/1e3 > f.Stats.RenderMS+1e-9 {
				t.Errorf("%s render span %v ms outlasts RenderMS %v", name, s.DurUS/1e3, f.Stats.RenderMS)
			}
		}
	}

	// The frame shows up on /debug/flight (first frame: kept by the p99
	// rule on an empty window) and exports as Perfetto JSON.
	base := "http://" + srv.HTTPAddr().String()
	code, body := httpGet(t, base+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight list: status %d", code)
	}
	var list struct {
		Entries []struct {
			TraceID string  `json:"trace_id"`
			Outcome string  `json:"outcome"`
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
			if e.Outcome != "ok" {
				t.Errorf("flight outcome = %q", e.Outcome)
			}
			if e.MS != f.Stats.TotalMS {
				t.Errorf("flight entry carries %v ms, its reply %v ms: want one total", e.MS, f.Stats.TotalMS)
			}
		}
	}
	if !found {
		t.Fatalf("flight list %+v missing trace %s", list.Entries, tc.TraceID)
	}
	code, body = httpGet(t, base+"/debug/flight?trace="+tc.TraceID)
	if code != http.StatusOK {
		t.Fatalf("flight export: status %d", code)
	}
	var file trace.File
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatalf("flight export JSON: %v", err)
	}
	if file.TraceID != tc.TraceID || len(file.TraceEvents) == 0 {
		t.Fatalf("flight export = traceId %q, %d events", file.TraceID, len(file.TraceEvents))
	}

	// The latency histogram carries the trace ID as an exemplar — on an
	// OpenMetrics-negotiated scrape only. A classic scrape must stay
	// clean: its parser rejects any line with an exemplar suffix.
	metrics := httpGetOpenMetrics(t, base+"/metrics")
	if !strings.Contains(string(metrics), `trace_id="`+tc.TraceID+`"`) {
		t.Error("OpenMetrics scrape missing the frame's exemplar")
	}
	if !strings.HasSuffix(string(metrics), "# EOF\n") {
		t.Error("OpenMetrics scrape missing # EOF trailer")
	}
	_, classic := httpGet(t, base+"/metrics")
	if strings.Contains(string(classic), "trace_id") {
		t.Error("classic scrape carries exemplars; stock Prometheus would reject it")
	}

	// An unsampled request still gets a locally minted correlation ID
	// but no span tree on the wire.
	f2, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Trace != nil {
		t.Error("unsampled request returned a span tree")
	}
	if f2.Stats.TraceID == "" || f2.Stats.TraceID == tc.TraceID {
		t.Errorf("unsampled Stats.TraceID = %q", f2.Stats.TraceID)
	}
}
