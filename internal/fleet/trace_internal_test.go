package fleet

import (
	"testing"
	"time"

	"sortlast/internal/trace"
)

// oversizedChild builds a replica span tree big enough that the merged
// gateway trace must truncate.
func oversizedChild(id trace.ID) *trace.Wire {
	spans := make([]trace.WireSpan, trace.MaxWireSpans)
	for i := range spans {
		spans[i] = trace.WireSpan{Name: "render", StartUS: float64(i), DurUS: 1}
	}
	return &trace.Wire{
		TraceID: id.String(),
		TotalUS: 500,
		Procs: []trace.WireProc{{
			Name:   "renderd",
			Tracks: []trace.WireTrack{{Name: "rank 0", Spans: spans}},
		}},
	}
}

// TestReqTraceWireRepeatable pins that wire() builds a Wire owning its
// data: the reply path truncates its merge, and a later /debug/flight
// export rebuilds from the same retained attempt children — which the
// first build must have left intact (no span loss, no duplicated
// tracks, no concurrent mutation under a marshal).
func TestReqTraceWireRepeatable(t *testing.T) {
	rec := &reqRecord{id: trace.NewID(), clientSampled: true, start: time.Now()}
	a := rec.beginAttempt(0, "primary")
	child := oversizedChild(rec.id)
	childSpans := child.SpanCount()
	rec.endAttempt(a, child, "")
	rec.finish()

	first := rec.wire()
	if !first.Truncated || first.SpanCount() != trace.MaxWireSpans {
		t.Fatalf("first merge: truncated=%v spans=%d, want truncated at %d",
			first.Truncated, first.SpanCount(), trace.MaxWireSpans)
	}
	if child.SpanCount() != childSpans || len(child.Procs[0].Tracks) != 1 {
		t.Fatalf("reply-path truncation corrupted the retained child: %d spans in %d tracks, want %d in 1",
			child.SpanCount(), len(child.Procs[0].Tracks), childSpans)
	}
	second := rec.wire()
	if second.SpanCount() != first.SpanCount() || len(second.Procs) != len(first.Procs) {
		t.Fatalf("flight re-export differs from reply merge: %d spans / %d procs vs %d / %d",
			second.SpanCount(), len(second.Procs), first.SpanCount(), len(first.Procs))
	}
}

// TestReplicaSamplingRule pins when the gateway asks a replica for its
// span tree: only when something reads it, the caller's sampled reply or
// the gateway's own flight recorder. With tracing off it ships no
// context at all.
func TestReplicaSamplingRule(t *testing.T) {
	for _, c := range []struct {
		off, flight, caller bool
		wantCtx, wantSample bool
	}{
		{off: true, caller: true},
		{wantCtx: true},
		{caller: true, wantCtx: true, wantSample: true},
		{flight: true, wantCtx: true, wantSample: true},
	} {
		g := &Gateway{cfg: Config{DisableTracing: c.off}}
		if c.flight {
			g.flight = trace.NewFlight(1)
		}
		ctx := g.newReqRecord(&trace.Context{TraceID: trace.NewID().String(), Sampled: c.caller}).childContext()
		if (ctx != nil) != c.wantCtx || (ctx != nil && ctx.Sampled != c.wantSample) {
			t.Errorf("tracing off %v, flight %v, caller sampled %v: child context %+v", c.off, c.flight, c.caller, ctx)
		}
	}
}
