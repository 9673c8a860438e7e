package fleet

import (
	"fmt"
	"sync"
	"time"

	"sortlast/internal/trace"
)

// reqTrace assembles the gateway's view of one request into a merged
// cross-process trace: the gateway's own serve/cache spans on a request
// track, one track per dispatch attempt (primary, hedge, cross-replica
// retry are overlapping siblings, so each gets its own track — see
// trace.ValidateNesting), and, nested under each attempt, the span tree
// the replica returned in its reply, shifted onto the gateway clock by
// the NTP-style midpoint estimate (trace.MidpointOffset).
//
// A nil *reqTrace means tracing is disabled at the gateway; every
// method no-ops. The struct is mutated from the dispatch goroutines
// (hedge losers land after the winner's reply has been sent), so wire()
// is safe to call at any time and a flight-recorder export made later
// includes attempts that finished late.
type reqTrace struct {
	id trace.ID
	// clientSampled: the caller asked for the span tree in its reply.
	// The gateway samples its replicas regardless (the flight recorder
	// wants full trees), but only echoes the merge upstream on request.
	clientSampled bool
	start         time.Time

	mu       sync.Mutex
	cacheDur time.Duration // cache lookup span (miss path)
	total    time.Duration // set by finish; zero while in flight
	attempts []*attempt
}

// attempt is one replica dispatch.
type attempt struct {
	idx   int    // replica index
	kind  string // "primary", "hedge", "retry"
	start time.Duration
	rtt   time.Duration // zero while in flight
	errC  string        // typed outcome, "" = ok or in flight
	child *trace.Wire   // the replica's returned span tree, may be nil
}

// newReqTrace starts the trace for one gateway request: the caller's
// trace identity is adopted, or — the gateway fronting an untraced
// external caller — a fresh ID is minted. Returns nil when gateway
// tracing is disabled.
func (g *Gateway) newReqTrace(tc *trace.Context, t0 time.Time) *reqTrace {
	if g.cfg.DisableTracing {
		return nil
	}
	rt := &reqTrace{start: t0}
	if tc != nil {
		rt.id = tc.Trace()
		rt.clientSampled = tc.Sampled
	}
	if rt.id == 0 {
		rt.id = trace.NewID()
	}
	return rt
}

// sampled reports whether the caller wants the merged tree back.
func (rt *reqTrace) wantsReply() bool { return rt != nil && rt.clientSampled }

// traceID returns the request's trace identity, zero when untraced.
func (rt *reqTrace) traceID() trace.ID {
	if rt == nil {
		return 0
	}
	return rt.id
}

// childContext derives the trace context shipped with one dispatch
// attempt: same trace ID, the attempt as parent, sampling forced on so
// the replica returns its span tree for the merge.
func (rt *reqTrace) childContext() *trace.Context {
	if rt == nil {
		return nil
	}
	return &trace.Context{TraceID: rt.id.String(), ParentID: trace.NewID().String(), Sampled: true}
}

// cacheLookup records the cache-probe duration on the request track.
func (rt *reqTrace) cacheLookup(d time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.cacheDur = d
	rt.mu.Unlock()
}

// beginAttempt registers one dispatch attempt and returns its handle.
func (rt *reqTrace) beginAttempt(idx int, kind string) *attempt {
	if rt == nil {
		return nil
	}
	a := &attempt{idx: idx, kind: kind, start: time.Since(rt.start)}
	rt.mu.Lock()
	rt.attempts = append(rt.attempts, a)
	rt.mu.Unlock()
	return a
}

// endAttempt closes an attempt with its outcome. child is the replica's
// returned span tree (nil on failure or an untraced replica); errCode
// is the typed failure ("" on success). Safe after finish — a hedge
// loser reaped seconds later still lands in the retained trace.
func (rt *reqTrace) endAttempt(a *attempt, child *trace.Wire, errCode string) {
	if rt == nil || a == nil {
		return
	}
	rt.mu.Lock()
	a.rtt = time.Since(rt.start) - a.start
	a.child = child
	a.errC = errCode
	rt.mu.Unlock()
}

// finish stamps the request's total gateway wall time.
func (rt *reqTrace) finish(total time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.total = total
	rt.mu.Unlock()
}

// wire builds the merged trace as it stands now. The gateway process
// comes first (request track, then one track per attempt); each
// attempt's replica tree follows as its own process, renamed and
// offset onto the gateway timeline. Span-capped for the reply header.
func (rt *reqTrace) wire() *trace.Wire {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()

	total := rt.total
	if total == 0 {
		total = time.Since(rt.start)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	gw := trace.WireProc{Name: "gateway"}
	reqSpans := []trace.WireSpan{{Name: "serve", DurUS: us(total)}}
	if rt.cacheDur > 0 {
		reqSpans = append(reqSpans, trace.WireSpan{Name: "cache lookup", DurUS: us(rt.cacheDur)})
	}
	gw.Tracks = append(gw.Tracks, trace.WireTrack{Name: "request", Spans: reqSpans})

	w := &trace.Wire{TraceID: rt.id.String(), TotalUS: us(total)}
	for i, a := range rt.attempts {
		rtt := a.rtt
		stage := a.errC
		if rtt == 0 { // still in flight at export time
			rtt = time.Since(rt.start) - a.start
			if stage == "" {
				stage = "in-flight"
			}
		} else if stage == "" {
			// Explicit terminal marker: a discarded hedge loser can also
			// finish ok (e.g. a replica's client retried through a world
			// restart), and exports must distinguish that from in-flight.
			stage = "ok"
		}
		gw.Tracks = append(gw.Tracks, trace.WireTrack{
			Name: fmt.Sprintf("attempt %d (%s)", i, a.kind),
			Spans: []trace.WireSpan{{
				Name:    fmt.Sprintf("%s → replica %d", a.kind, a.idx+1),
				Stage:   stage,
				StartUS: us(a.start),
				DurUS:   us(rtt),
			}},
		})
	}
	w.Procs = append(w.Procs, gw)
	for _, a := range rt.attempts {
		if a.child == nil {
			continue
		}
		off := us(trace.MidpointOffset(a.start, a.rtt, a.child.Total()))
		if a.child.Truncated {
			w.Truncated = true
		}
		for _, p := range a.child.Procs {
			// Clone: the retained child tree is merged again on a later
			// flight export (and marshaled concurrently with it), so the
			// built Wire must own the tracks Truncate below rewrites.
			p = p.Clone()
			p.Name = fmt.Sprintf("replica %d: %s", a.idx+1, p.Name)
			p.OffsetUS += off
			w.Procs = append(w.Procs, p)
		}
	}
	w.Truncate(trace.MaxWireSpans)
	return w
}
