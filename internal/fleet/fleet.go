// Package fleet is the horizontal-capacity tier above renderd: a
// gateway that owns N world replicas (each a supervised internal/server
// world with its own P, or an externally running renderd it attaches
// to) and speaks the same length-prefixed frame protocol to
// clients, so internal/client works unchanged against a gateway.
//
// Three mechanisms turn one-world serving into a fleet:
//
//   - Routing: requests go to the replica with the least outstanding
//     work, away from replicas that recently failed or whose world is
//     rebuilding. A dispatch that fails with a retryable error is
//     retried on the next replica, so one crashing replica drains to
//     the survivors without failing client requests.
//
//   - Hedged dispatch: a request that outlives its replica's rolling
//     p99 latency is speculatively re-sent to a second replica; the
//     first reply wins. This bounds tail latency against a slow or
//     silently wedged replica at the cost of one duplicate render.
//
//   - Frame cache: successful frames are cached under their quantized
//     camera key (LRU, byte budget), so dashboard-style repeat traffic
//     is served from memory without touching a world. The datasets are
//     compiled in and immutable, so entries leave only by eviction.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/obs"
	"sortlast/internal/server"
	"sortlast/internal/trace"
)

// Config describes one gateway.
type Config struct {
	// Addr is the gateway's frame-protocol listen address. Default
	// 127.0.0.1:7261.
	Addr string
	// HTTPAddr is the observability sidecar address (/healthz, /metrics,
	// /debug/pprof/, /debug/flight). Empty disables the sidecar.
	HTTPAddr string

	// Replicas is the replica set; at least one is required.
	Replicas []ReplicaConfig

	// CacheBytes is the frame cache's byte budget. Zero means 64 MiB;
	// negative disables the cache. Cache keys quantize the camera to
	// DefaultQuantDeg.
	CacheBytes int64

	// HedgeMin floors the hedge delay so a replica with a very fast
	// rolling p99 is not hedged on scheduling noise. Zero means 10ms.
	HedgeMin time.Duration
	// SuspectCooldown is how long a replica is deprioritized after a
	// failed dispatch. Zero means 1s.
	SuspectCooldown time.Duration

	// DefaultDeadline bounds requests that carry no DeadlineMS. Zero
	// means 30s.
	DefaultDeadline time.Duration

	// DisableTracing turns off the gateway's request tracing: no trace
	// contexts are propagated to replicas, no merged span trees are
	// returned to sampled callers, and the flight recorder (the last
	// trace.DefaultFlightSize interesting requests at /debug/flight) is
	// off.
	DisableTracing bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7261"
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.HedgeMin == 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.SuspectCooldown == 0 {
		c.SuspectCooldown = time.Second
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	return c
}

// hedgeColdDelay is the hedge threshold while a replica has too few
// latency samples for a meaningful p99.
const hedgeColdDelay = 500 * time.Millisecond

// hedgeMinSamples is how many window samples a replica needs before its
// rolling p99 replaces the cold default.
const hedgeMinSamples = 16

// Gateway is a running fleet gateway.
type Gateway struct {
	cfg      Config
	replicas []*replica
	met      *metrics

	cacheMu sync.Mutex
	cache   *frameCache // nil when disabled

	// flight retains the merged span trees of the last N interesting
	// requests (errors, hedges, over-p99), served at /debug/flight. Nil
	// when tracing is disabled.
	flight *trace.Flight

	lis     *server.Listener // frame protocol; serve is its handler
	sidecar *obs.Sidecar     // nil when Config.HTTPAddr is empty

	sendWG sync.WaitGroup // in-flight replica dispatches (incl. hedge losers)
}

// Start builds the replica set (concurrently — replicas are
// independent), then begins serving the frame protocol on cfg.Addr and
// the observability sidecar on cfg.HTTPAddr.
func Start(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	replicas, err := startReplicas(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	g := &Gateway{cfg: cfg, replicas: replicas}
	if cfg.CacheBytes > 0 {
		g.cache = newFrameCache(cfg.CacheBytes)
	}
	if !cfg.DisableTracing {
		g.flight = trace.NewFlight(trace.DefaultFlightSize)
	}
	g.met = newFleetMetrics(g)

	// The frame listener starts last: once it accepts, serve runs.
	g.sidecar, err = obs.StartSidecar(cfg.HTTPAddr, g.met.reg, g.handleHealthz, g.flight)
	if err == nil {
		g.lis, err = server.Listen(cfg.Addr, g.serve)
	}
	if err != nil {
		g.sidecar.Shutdown(context.Background())
		g.stopReplicas(context.Background())
		return nil, err
	}
	return g, nil
}

// Addr returns the gateway's frame-protocol listen address.
func (g *Gateway) Addr() net.Addr { return g.lis.Addr() }

// HTTPAddr returns the sidecar listen address, nil when disabled.
func (g *Gateway) HTTPAddr() net.Addr { return g.sidecar.Addr() }

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	healthy := 0
	for _, r := range g.replicas {
		if !r.isSuspect(now) && !r.degraded() {
			healthy++
		}
	}
	if healthy == 0 {
		http.Error(w, fmt.Sprintf("degraded: 0/%d replicas healthy", len(g.replicas)),
			http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok (%d/%d replicas healthy)\n", healthy, len(g.replicas))
}

// ---- serving ----

// serve answers one request — it is the frame listener's handler: from
// the frame cache when the quantized camera hits, otherwise by
// dispatching to a replica (with hedging and cross-replica retry) and
// caching the result.
func (g *Gateway) serve(req server.Request) (*server.Response, []byte) {
	g.met.requests.Add(1)
	if err := req.Check(); err != nil {
		g.met.errored.Add(1)
		return &server.Response{Code: server.CodeBadRequest, Error: err.Error()}, nil
	}
	t0 := time.Now()
	key := quantKey(req, DefaultQuantDeg)
	rt := g.newReqTrace(req.Trace, t0)

	if g.cache != nil {
		g.cacheMu.Lock()
		e, ok := g.cache.get(key)
		g.cacheMu.Unlock()
		if ok {
			g.met.cache.Add(1, "hit")
			return g.reply(rt, req, time.Since(t0), &server.Response{
				OK: true, Width: e.width, Height: e.height,
				Stats: server.FrameStats{Cached: true, Quality: e.key.quality},
			}), e.gray
		}
		g.met.cache.Add(1, "miss")
		rt.cacheLookup(time.Since(t0))
	}

	ctx, cancel := context.WithTimeout(context.Background(), req.Deadline(g.cfg.DefaultDeadline))
	defer cancel()

	f, idx, hedged, err := g.dispatch(ctx, req, rt)
	total := time.Since(t0)
	if err != nil {
		resp := errorResponse(err)
		resp.Stats.Hedged = hedged
		return g.reply(rt, req, total, resp), nil
	}
	if g.cache != nil {
		// The entry is keyed by the quality actually delivered (a
		// DegradeOK request may come back below what it asked for), so a
		// later full-quality request can never be answered with these
		// bytes unless they really are full quality.
		ckey := key
		if q, err := server.NormalizeQuality(f.Stats.Quality); err == nil {
			ckey.quality = q
		}
		e := &cacheEntry{key: ckey, width: f.Width, height: f.Height, gray: f.Gray}
		g.cacheMu.Lock()
		evicted := g.cache.put(e)
		g.cacheMu.Unlock()
		g.met.cacheEvict.Add(int64(evicted))
	}
	resp := &server.Response{OK: true, Width: f.Width, Height: f.Height, Stats: f.Stats}
	resp.Stats.Replica = idx + 1
	resp.Stats.Hedged = hedged
	return g.reply(rt, req, total, resp), f.Gray
}

// reply closes one request, whatever its outcome: the gateway-side wall
// time and trace identity are stamped on the response, the latency
// histogram (served frames) or the error counter moves, and the request
// is offered to the flight recorder. The flight entry's span tree is
// built lazily at export time, so a hedge loser reaped after this call
// still shows up in the retained trace.
func (g *Gateway) reply(rt *reqTrace, req server.Request, total time.Duration, resp *server.Response) *server.Response {
	rt.finish(total)
	resp.Stats.TotalMS = float64(total) / 1e6
	resp.Stats.TraceID = rt.traceID().String()
	outcome := "ok"
	if resp.OK {
		g.met.latency.Observe(total.Seconds(), uint64(rt.traceID()))
		if rt.wantsReply() {
			resp.Trace = rt.wire()
		}
	} else {
		g.met.errored.Add(1)
		if outcome = resp.Code; outcome == "" {
			outcome = server.CodeInternal
		}
	}
	if g.flight != nil && rt != nil {
		method := req.Method
		if method == "" {
			method = server.DefaultMethod
		}
		g.flight.Observe(trace.FlightEntry{
			TraceID: resp.Stats.TraceID,
			At:      time.Now(),
			Latency: total,
			Outcome: outcome,
			Hedged:  resp.Stats.Hedged,
			Cached:  resp.Stats.Cached,
			Detail:  fmt.Sprintf("%s %dx%d %s", method, req.Width, req.Height, req.Dataset),
			Trace:   rt.wire,
		})
	}
	return resp
}

// errorResponse maps a dispatch error onto the wire's typed reply. A
// typed replica reply passes through unchanged; everything else becomes
// deadline_exceeded or internal.
func errorResponse(err error) *server.Response {
	var typed *client.Error
	if errors.As(err, &typed) {
		return &server.Response{Code: typed.Code, Error: typed.Msg}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &server.Response{Code: CodeDeadline, Error: "request deadline expired at the gateway"}
	}
	return &server.Response{Code: server.CodeInternal, Error: err.Error()}
}

// CodeDeadline mirrors server.CodeDeadline; aliased here so callers of
// the fleet package need not import server for the constant.
const CodeDeadline = server.CodeDeadline

// result is one replica dispatch's outcome.
type result struct {
	f   *client.Frame
	err error
	idx int
}

// dispatch sends req to the best replica, hedging to a second one when
// the reply outlives the primary's rolling p99 and retrying on the next
// replica after a retryable failure. Each replica is tried at most once
// per request. It returns the winning frame and replica index, and
// whether a hedge was issued.
func (g *Gateway) dispatch(ctx context.Context, req server.Request, rt *reqTrace) (*client.Frame, int, bool, error) {
	tried := make(map[int]bool, len(g.replicas))
	hedgeIdx := map[int]bool{}
	resCh := make(chan result, len(g.replicas))

	primary := g.pick(tried)
	if primary < 0 {
		return nil, 0, false, fmt.Errorf("fleet: no replicas available")
	}
	g.send(ctx, primary, req, resCh, rt, "primary")
	tried[primary] = true
	outstanding := 1
	hedged := false

	hedgeTimer := time.NewTimer(g.hedgeDelay(primary))
	defer hedgeTimer.Stop()

	var lastErr error
	for {
		select {
		case r := <-resCh:
			outstanding--
			if r.err == nil {
				if hedgeIdx[r.idx] {
					g.met.hedgeWins.Add(1)
					g.replicas[r.idx].hedgesWon.Add(1)
				}
				return r.f, r.idx, hedged, nil
			}
			lastErr = r.err
			if !dispatchRetryable(r.err) {
				// Permanent for this request (bad request, expired
				// deadline): another replica would answer identically.
				return nil, r.idx, hedged, r.err
			}
			g.replicas[r.idx].suspect(time.Now(), g.cfg.SuspectCooldown)
			if next := g.pick(tried); next >= 0 {
				g.met.retries.Add(1)
				g.send(ctx, next, req, resCh, rt, "retry")
				tried[next] = true
				outstanding++
			} else if outstanding == 0 {
				return nil, r.idx, hedged, lastErr
			}
		case <-hedgeTimer.C:
			if hedged {
				continue
			}
			if next := g.pick(tried); next >= 0 {
				hedged = true
				hedgeIdx[next] = true
				g.met.hedges.Add(1)
				g.send(ctx, next, req, resCh, rt, "hedge")
				tried[next] = true
				outstanding++
			}
		case <-ctx.Done():
			return nil, 0, hedged, ctx.Err()
		}
	}
}

// send dispatches req to replica idx in its own goroutine. The replica
// does its own bookkeeping (outstanding, latency window, counters), so
// a hedge loser finishing after the winner returned still lands its
// numbers — and its trace attempt, which the flight recorder's lazy
// export picks up even after the winner's reply went out.
func (g *Gateway) send(ctx context.Context, idx int, req server.Request, ch chan<- result, rt *reqTrace, kind string) {
	r := g.replicas[idx]
	r.outstanding.Add(1)
	g.sendWG.Add(1)
	// req is a copy: the attempt-specific trace context never leaks into
	// a sibling dispatch.
	req.Trace = rt.childContext()
	a := rt.beginAttempt(idx, kind)
	go func() {
		defer g.sendWG.Done()
		defer r.outstanding.Add(-1)
		t0 := time.Now()
		f, err := r.cl.Render(ctx, req)
		if err == nil {
			rt.endAttempt(a, f.Trace, "")
			r.win.observe(time.Since(t0))
			r.frames.Add(1)
		} else {
			rt.endAttempt(a, nil, errCode(err))
			r.errs.Add(1)
		}
		ch <- result{f: f, err: err, idx: idx}
	}()
}

// errCode names a dispatch error for the attempt span's outcome label.
func errCode(err error) string {
	var typed *client.Error
	if errors.As(err, &typed) {
		return typed.Code
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return "cancelled"
	}
	return "transport_error"
}

// pick scores the replicas not yet tried for this request and returns
// the best, or -1 when all are exhausted.
func (g *Gateway) pick(tried map[int]bool) int {
	now := time.Now()
	cands := make([]pickCandidate, len(g.replicas))
	for i, r := range g.replicas {
		cands[i].Outstanding = int(r.outstanding.Load())
		cands[i].Excluded = tried[i]
		if r.isSuspect(now) {
			cands[i].Penalty += suspectPenalty
		}
		if r.degraded() {
			cands[i].Penalty += degradedPenalty
		}
	}
	return pickReplica(cands)
}

// hedgeDelay is how long a dispatch to replica idx may run before a
// hedge fires: the replica's rolling p99, floored by HedgeMin, or a
// conservative cold default while the window is thin.
func (g *Gateway) hedgeDelay(idx int) time.Duration {
	p99, n := g.replicas[idx].win.p99()
	if n < hedgeMinSamples {
		return hedgeColdDelay
	}
	if p99 < g.cfg.HedgeMin {
		return g.cfg.HedgeMin
	}
	return p99
}

// dispatchRetryable reports whether a failed dispatch is worth retrying
// on another replica: backpressure, a failed or draining world, and
// transport errors (dial refused, torn connection) all are — a
// different replica is an independent failure domain. Validation
// failures and expired deadlines are not.
func dispatchRetryable(err error) bool {
	if errors.Is(err, client.ErrBadRequest) || errors.Is(err, client.ErrDeadline) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// ---- teardown ----

func (g *Gateway) stopReplicas(ctx context.Context) error {
	errs := make([]error, len(g.replicas))
	var wg sync.WaitGroup
	for i, r := range g.replicas {
		if r.srv == nil {
			continue
		}
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			errs[i] = r.srv.Shutdown(ctx)
		}(i, r)
	}
	wg.Wait()
	for _, r := range g.replicas {
		r.stop()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: replica %d shutdown: %w", i, err)
		}
	}
	return nil
}

// Shutdown stops the gateway: the listener closes, connection handlers
// finish their current reply, in-flight dispatches (hedge losers
// included) complete, then the in-process replicas drain. ctx bounds
// the whole sequence.
func (g *Gateway) Shutdown(ctx context.Context) error {
	err := g.lis.Drain(ctx)

	// Hedge losers may still be in flight; their contexts carry request
	// deadlines, so this wait is bounded even if ctx is not.
	sendDone := make(chan struct{})
	go func() { g.sendWG.Wait(); close(sendDone) }()
	select {
	case <-sendDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}

	if serr := g.stopReplicas(ctx); serr != nil && err == nil {
		err = serr
	}
	if herr := g.sidecar.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	return err
}
