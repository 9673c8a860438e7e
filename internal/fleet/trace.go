package fleet

import (
	"fmt"
	"sync"
	"time"

	"sortlast/internal/trace"
)

// reqRecord is the gateway's one account of a request, kept whether or
// not tracing is on: when it started, the cache probe, every dispatch
// attempt, the replica that won, whether a hedge was issued, and the
// total. reply reads the response's gateway fields, the latency
// histogram and the flight entry from it. wire assembles it into a
// merged cross-process trace: the gateway's own serve/cache spans on a
// request track, one track per dispatch attempt (primary, hedge and
// cross-replica retry are overlapping siblings, so each gets its own
// track — see trace.ValidateNesting), and, nested under each attempt,
// the span tree the replica returned in its reply, shifted onto the
// gateway clock by the NTP-style midpoint estimate
// (trace.MidpointOffset).
//
// With the gateway's tracing off the record keeps ID 0: it ships no
// trace context, and reply keeps no flight entry and returns no merged
// tree. The attempts are written from the dispatch goroutines (hedge
// losers land after the winner's reply has been sent), so wire() is
// safe to call at any time and a flight-recorder export made later
// includes attempts that finished late; winner and hedged belong to
// the serving goroutine.
type reqRecord struct {
	id            trace.ID // zero when the gateway's tracing is off
	clientSampled bool     // the caller asked for the merged tree in its reply
	sampled       bool     // the replicas are asked for their span trees
	start         time.Time

	winner int  // 1-based replica whose reply won; 0 for a cache hit or a failure
	hedged bool // a hedged dispatch was issued

	mu       sync.Mutex
	cacheDur time.Duration // cache lookup span (miss path)
	total    time.Duration // set by finish
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

// newReqRecord opens the record of one gateway request. With tracing on,
// the caller's trace identity is adopted or, the gateway fronting an
// untraced external caller, a fresh ID is minted. A replica is asked for
// its span tree only when something can read it: the caller sampled, or
// the gateway keeps a flight recorder.
func (g *Gateway) newReqRecord(tc *trace.Context) *reqRecord {
	rec := &reqRecord{start: time.Now()}
	if g.cfg.DisableTracing {
		return rec
	}
	rec.id, rec.clientSampled = tc.Trace(), tc != nil && tc.Sampled
	if rec.id == 0 {
		rec.id = trace.NewID()
	}
	rec.sampled = rec.clientSampled || g.flight != nil
	return rec
}

// childContext derives the trace context shipped with one dispatch
// attempt: the request's trace ID and sampling decision, none when the
// gateway's tracing is off.
func (rec *reqRecord) childContext() *trace.Context {
	if rec.id == 0 {
		return nil
	}
	return &trace.Context{TraceID: rec.id.String(), Sampled: rec.sampled}
}

// cacheLookup records the cache probe, which ends now.
func (rec *reqRecord) cacheLookup() {
	rec.mu.Lock()
	rec.cacheDur = time.Since(rec.start)
	rec.mu.Unlock()
}

// beginAttempt registers one dispatch attempt and returns its handle.
func (rec *reqRecord) beginAttempt(idx int, kind string) *attempt {
	a := &attempt{idx: idx, kind: kind, start: time.Since(rec.start)}
	rec.mu.Lock()
	rec.attempts = append(rec.attempts, a)
	rec.mu.Unlock()
	return a
}

// endAttempt closes an attempt with its outcome. child is the replica's
// returned span tree (nil on failure or an unsampled dispatch); errCode
// is the typed failure ("" on success). Safe after finish — a hedge
// loser reaped seconds later still lands in the retained trace.
func (rec *reqRecord) endAttempt(a *attempt, child *trace.Wire, errCode string) {
	rec.mu.Lock()
	a.rtt = time.Since(rec.start) - a.start
	a.child = child
	a.errC = errCode
	rec.mu.Unlock()
}

// finish takes the request's one total: the gateway wall time the
// reply, the latency histogram, the flight entry and the merged trace
// all carry.
func (rec *reqRecord) finish() time.Duration {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.total = time.Since(rec.start)
	return rec.total
}

// wire builds the merged trace as it stands now. The gateway process
// comes first (request track, then one track per attempt); each
// attempt's replica tree follows as its own process, renamed and
// offset onto the gateway timeline. Span-capped for the reply header.
func (rec *reqRecord) wire() *trace.Wire {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	gw := trace.WireProc{Name: "gateway"}
	reqSpans := []trace.WireSpan{{Name: "serve", DurUS: us(rec.total)}}
	if rec.cacheDur > 0 {
		reqSpans = append(reqSpans, trace.WireSpan{Name: "cache lookup", DurUS: us(rec.cacheDur)})
	}
	gw.Tracks = append(gw.Tracks, trace.WireTrack{Name: "request", Spans: reqSpans})

	w := &trace.Wire{TraceID: rec.id.String(), TotalUS: us(rec.total)}
	for i, a := range rec.attempts {
		rtt := a.rtt
		stage := a.errC
		if rtt == 0 { // still in flight at export time
			rtt = time.Since(rec.start) - a.start
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
	for _, a := range rec.attempts {
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
