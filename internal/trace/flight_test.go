package trace

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestFlightTailSampling(t *testing.T) {
	f := NewFlight(8)

	// First frame: empty window, p99 = 0, everything is "at the tail".
	if !f.Observe(FlightEntry{Outcome: "ok", Latency: 5 * time.Millisecond}) {
		t.Fatal("first frame not kept")
	}
	// Warm the window with 100 fast frames; most drop once the window
	// has mass, since they are below the running p99.
	kept := 0
	for i := 0; i < 100; i++ {
		if f.Observe(FlightEntry{Outcome: "ok", Latency: time.Millisecond}) {
			kept++
		}
	}
	if kept > 5 {
		t.Fatalf("kept %d of 100 identical fast frames, want few", kept)
	}

	// Errors and hedges always stay, regardless of latency.
	if !f.Observe(FlightEntry{Outcome: "world_failed", Latency: time.Microsecond}) {
		t.Fatal("error frame dropped")
	}
	if !f.Observe(FlightEntry{Outcome: "ok", Hedged: true, Latency: time.Microsecond}) {
		t.Fatal("hedged frame dropped")
	}
	// A new slowest-ever frame is ≥ the old p99 and stays.
	if !f.Observe(FlightEntry{Outcome: "ok", Latency: time.Second}) {
		t.Fatal("new slowest frame dropped")
	}
	// Cache hits never qualify via latency (their microsecond latencies
	// also stay out of the window).
	if f.Observe(FlightEntry{Outcome: "ok", Cached: true, Latency: 2 * time.Second}) {
		t.Fatal("cached frame kept via p99 rule")
	}

	// Reasons recorded, newest first.
	entries := f.newestFirst()
	if len(entries) == 0 || entries[0].Reason != "p99" {
		t.Fatalf("entries[0] = %+v", entries)
	}
	var reasons []string
	for _, e := range entries {
		reasons = append(reasons, e.Reason)
	}
	if reasons[1] != "hedged" || reasons[2] != "error" {
		t.Fatalf("reasons = %v", reasons)
	}
}

// TestFlightWindowIgnoresErrors pins the p99 window's diet: fast
// rejections (overloaded/shutdown answer in microseconds) must not feed
// the latency window, or during and after an overload burst the
// threshold collapses and every ordinary frame qualifies as ">= p99",
// churning the ring and evicting genuinely interesting entries. Errors
// are kept unconditionally, so they need no say in the threshold.
func TestFlightWindowIgnoresErrors(t *testing.T) {
	f := NewFlight(8)
	for i := 0; i < flightWindow; i++ {
		f.Observe(FlightEntry{Outcome: "ok", Latency: 10 * time.Millisecond})
	}
	// An overload burst: twice the window size of microsecond rejections.
	for i := 0; i < 2*flightWindow; i++ {
		if !f.Observe(FlightEntry{Outcome: "overloaded", Latency: time.Microsecond}) {
			t.Fatal("error frame dropped")
		}
	}
	// An ordinary 5ms frame is still below the 10ms tail and drops; with
	// the window polluted it would have been "kept: p99".
	if f.Observe(FlightEntry{Outcome: "ok", Latency: 5 * time.Millisecond}) {
		t.Fatal("ordinary frame kept after an error burst: errors fed the p99 window")
	}
}

func TestFlightRingEviction(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		// Errors bypass the latency rule, so all 10 are kept.
		f.Observe(FlightEntry{Outcome: "deadline", Latency: time.Duration(i) * time.Millisecond})
	}
	if f.Len() != 4 {
		t.Fatalf("len = %d, want 4", f.Len())
	}
	es := f.newestFirst()
	if len(es) != 4 {
		t.Fatalf("entries = %d, want 4", len(es))
	}
	for i, e := range es {
		if want := uint64(10 - i); e.Seq != want {
			t.Fatalf("entries[%d].Seq = %d, want %d (newest first)", i, e.Seq, want)
		}
	}
}

func TestFlightNilDisabled(t *testing.T) {
	var f *Flight
	if f.Observe(FlightEntry{Outcome: "error"}) {
		t.Fatal("nil flight kept an entry")
	}
	if f.Len() != 0 || f.newestFirst() != nil {
		t.Fatal("nil flight accessors not zero-valued")
	}
	rr := httptest.NewRecorder()
	f.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 404 {
		t.Fatalf("nil flight HTTP status = %d, want 404", rr.Code)
	}
}

func TestFlightHTTP(t *testing.T) {
	f := NewFlight(8)
	id := NewID()
	rec := recWithSpans(t, 2, 1)
	wire := BuildWire(id, "renderd", time.Millisecond, nil, rec)
	f.Observe(FlightEntry{
		TraceID: id.String(),
		Outcome: "ok",
		Latency: 40 * time.Millisecond,
		Detail:  "bsbrc 256x256",
		Trace:   func() *Wire { return wire },
	})

	// List form.
	rr := httptest.NewRecorder()
	f.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("list status = %d", rr.Code)
	}
	var list struct {
		Entries []struct {
			Seq     uint64  `json:"seq"`
			TraceID string  `json:"trace_id"`
			MS      float64 `json:"ms"`
			Outcome string  `json:"outcome"`
			Detail  string  `json:"detail"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("list is not valid JSON: %v", err)
	}
	if len(list.Entries) != 1 {
		t.Fatalf("entries = %+v", list.Entries)
	}
	e := list.Entries[0]
	if e.TraceID != id.String() || e.MS != 40 || e.Detail != "bsbrc 256x256" {
		t.Fatalf("entry = %+v", e)
	}

	// Per-entry Perfetto export, by trace id and by seq.
	for _, key := range []string{id.String(), "1"} {
		rr = httptest.NewRecorder()
		f.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?trace="+key, nil))
		if rr.Code != 200 {
			t.Fatalf("export(%q) status = %d", key, rr.Code)
		}
		var file File
		if err := json.Unmarshal(rr.Body.Bytes(), &file); err != nil {
			t.Fatalf("export is not valid JSON: %v", err)
		}
		if file.TraceID != id.String() || len(file.TraceEvents) == 0 {
			t.Fatalf("export file = %+v", file)
		}
	}

	// Unknown key.
	rr = httptest.NewRecorder()
	f.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?trace=ffff", nil))
	if rr.Code != 404 {
		t.Fatalf("unknown key status = %d, want 404", rr.Code)
	}
}
