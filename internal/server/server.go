// Package server implements renderd, the persistent frame-serving tier
// of the sort-last system: a resident rank pool (an in-process mp world)
// that keeps volumes, transfer functions and the per-rank compositing
// scratch warm across requests and serves frames over a length-prefixed
// TCP protocol.
//
// The serving skeleton is: connection handlers validate and admit
// requests into a bounded queue (admission control — a full queue is a
// typed "overloaded" reply, never unbounded buffering); a scheduler
// dispatches queued jobs into the rank pool through an in-flight FIFO of
// capacity MaxInFlight, so up to K frames pipeline through the two
// per-rank stages (render, then composite+gather); rank 0's composite
// stage takes the FIFO's head and delivers the final image back to the
// waiting handler. Per-request deadlines cancel queued work at dispatch
// time — once a frame enters the rank pool it runs to completion,
// because cancelling half a binary-swap would desynchronize the world.
// An HTTP sidecar exposes /healthz and Prometheus /metrics.
//
// Frames dispatched back to back stay correctly paired without barriers:
// every rank processes frames in the same dispatch order, and the mp
// layer guarantees FIFO delivery per (source, tag) channel — the same
// property consecutive collectives rely on. So rank 0 always finishes
// the oldest in-flight frame, the head of the FIFO.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sortlast/internal/faultinject"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/obs"
	"sortlast/internal/pool"
	"sortlast/internal/render"
	"sortlast/internal/trace"
)

// Config describes one renderd instance.
type Config struct {
	// Addr is the frame-protocol listen address. Default 127.0.0.1:7171.
	Addr string
	// HTTPAddr is the observability sidecar listen address (/healthz,
	// /metrics). Empty disables the sidecar.
	HTTPAddr string

	// P is the number of resident ranks. Default 4.
	P int

	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is rejected with CodeOverloaded. Default 64.
	QueueDepth int
	// MaxInFlight bounds how many frames may be in the render→composite
	// pipeline at once. Default 2 (one rendering while one composites).
	MaxInFlight int
	// DefaultDeadline applies to requests that do not set DeadlineMS.
	// Default 30s.
	DefaultDeadline time.Duration
	// FrameTimeout is the per-frame watchdog deadline: a dispatched frame
	// that has not replied within it declares the rank world wedged, which
	// fails every in-flight job with CodeWorldFailed and rebuilds the
	// world. Default 60s.
	FrameTimeout time.Duration

	// Chaos, when set, wraps every rank's transport with fault injection
	// (delays, resets, rank crashes, stalls) for chaos testing;
	// see internal/faultinject. Nil (the default) injects nothing.
	Chaos *faultinject.Injector

	// DisableTracing turns off the per-frame span recorder. By default a
	// frame records per-rank spans (a few hundred appends per frame)
	// when someone can read them: a sampled request gets its span tree
	// in the reply, and with the sidecar up every frame feeds
	// /debug/trace/last and the flight recorder (the last
	// trace.DefaultFlightSize interesting frames at /debug/flight). The
	// latency and phase histograms on /metrics do not depend on it.
	DisableTracing bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7171"
	}
	if c.P == 0 {
		c.P = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 60 * time.Second
	}
	return c
}

// job is one admitted request moving through the pipeline.
type job struct {
	plan     *harness.Plan
	method   string
	deadline time.Time

	// quality is the contract the job was admitted at (what the plan
	// renders); requested is what the caller asked for — they differ
	// when admission degraded the request to preview.
	quality   string
	requested string

	// id is the distributed trace identity (from the request's trace
	// context, or minted locally so flight entries and exemplars always
	// have a key); sampled means the reply must carry the span tree.
	id      trace.ID
	sampled bool

	// rec is the frame's account; spans is its span recorder, nil unless
	// someone can read it (see buildJob). Pipelined frames overlap in
	// the rank pool, so both are per-job: each frame's spans land on its
	// own set of rank tracks.
	rec   frameRecord
	spans *trace.Recorder

	// watchdog fails the world if the frame is not done within
	// Config.FrameTimeout of its dispatch; nil until dispatched.
	watchdog *time.Timer

	once sync.Once
	done chan reply // buffered; exactly one reply per admitted job
}

// frameRecord is the one account of a served frame. The reply's
// FrameStats, the latency and phase histograms, the wire byte counter,
// the flight entry and the reply's span tree are all read from it and
// from the one total taken when the request is answered.
type frameRecord struct {
	arrived    time.Time // submit's stamp: the deadline and every latency are anchored to it
	dispatched time.Time // the scheduler's stamp; zero for a job never dispatched

	// The frame's walls and wire bytes, complete when rank 0 replies.
	harness.Tally
}

// queue is the time from arrival to dispatch.
func (r *frameRecord) queue() time.Duration { return r.dispatched.Sub(r.arrived) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

type reply struct {
	img  *frame.Image
	code string // "" on success
	err  error
}

func (j *job) finish(r reply) { j.once.Do(func() { j.done <- r }) }

// rendered is the handoff between a rank's render and composite stages.
type rendered struct {
	job *job
	img *frame.Image
}

// Server is a running renderd instance.
type Server struct {
	cfg Config
	met *metrics

	queue chan *job
	// inflight holds the dispatched jobs not yet answered, oldest first;
	// its capacity, MaxInFlight, is the in-flight bound.
	inflight chan *job
	stop     chan struct{}

	// cur is the live world incarnation (nil while the supervisor is
	// rebuilding after a failure). The supervisor replaces it; Shutdown
	// takes the final one to drain.
	curMu sync.Mutex
	cur   *worldRun

	// degraded is set while the rank world is down and being rebuilt;
	// /healthz reports 503 until a fresh world is serving again.
	degraded     atomic.Bool
	lastWorldErr atomic.Pointer[error]

	// renderStats accumulates the ray caster's work counters across all
	// frames and ranks this server has rendered; /metrics exposes them.
	renderStats render.Stats

	lis     *Listener    // frame protocol; submit is its handler
	sidecar *obs.Sidecar // nil when Config.HTTPAddr is empty

	// closed ends admission: set under mu by Shutdown, checked under mu
	// by enqueue.
	mu     sync.Mutex
	closed bool

	supDone chan struct{} // supervisor exited

	// lastTrace is the most recently completed frame's span recorder,
	// served by /debug/trace/last.
	lastTrace atomic.Pointer[trace.Recorder]

	// flight retains the span trees of the last N interesting frames
	// (tail-sampled), served at /debug/flight. Nil when tracing is
	// disabled or no sidecar would serve it.
	flight *trace.Flight

	stopOnce sync.Once
}

// WorldRestarts reports how many times the resident rank world has been
// torn down and rebuilt after a failure.
func (s *Server) WorldRestarts() int64 { return s.met.worldRestarts.Load() }

// Degraded reports whether the rank world is currently down and being
// rebuilt (requests queue until it returns).
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Start builds the resident world, spawns the rank pipelines and begins
// serving on cfg.Addr (and cfg.HTTPAddr when set).
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxInFlight < 1 || cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("server: MaxInFlight and QueueDepth must be positive")
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		inflight: make(chan *job, cfg.MaxInFlight),
		stop:     make(chan struct{}),
		supDone:  make(chan struct{}),
	}
	if !cfg.DisableTracing && cfg.HTTPAddr != "" {
		s.flight = trace.NewFlight(trace.DefaultFlightSize)
	}
	s.met = newMetrics(func() int { return len(s.queue) }, func() int { return len(s.inflight) }, s.flight, s.renderStats.Snapshot)

	// The first world builds synchronously so a configuration error (a
	// rank count mp refuses) fails Start; later failures are the
	// supervisor's to absorb.
	run, err := s.newWorldRun()
	if err != nil {
		return nil, err
	}
	s.setCur(run)
	go s.supervise(run)

	// The frame listener starts last: once it accepts, submit runs.
	s.sidecar, err = obs.StartSidecar(cfg.HTTPAddr, s.met.reg, s.handleHealthz, s.flight)
	if err == nil {
		s.sidecar.HandleFunc("/debug/trace/last", s.handleTraceLast)
		s.lis, err = Listen(cfg.Addr, s.submit)
	}
	if err != nil {
		// Nothing was served yet: only the sidecar and the world to unwind.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.sidecar.Shutdown(ctx)
		s.stopWorld(ctx)
		return nil, err
	}
	return s, nil
}

// Addr returns the frame-protocol listen address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// HTTPAddr returns the sidecar listen address, nil when disabled.
func (s *Server) HTTPAddr() net.Addr { return s.sidecar.Addr() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.degraded.Load() {
		msg := "degraded: rank world down, rebuilding"
		if p := s.lastWorldErr.Load(); p != nil {
			msg = fmt.Sprintf("%s: %v", msg, *p)
		}
		http.Error(w, fmt.Sprintf("%s (restarts: %d)", msg, s.met.worldRestarts.Load()),
			http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleTraceLast serves the most recently completed frame's span trace
// as Chrome/Perfetto trace-event JSON (load in ui.perfetto.dev or
// chrome://tracing).
func (s *Server) handleTraceLast(w http.ResponseWriter, _ *http.Request) {
	rec := s.lastTrace.Load()
	if rec == nil {
		http.Error(w, "no frame traced yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rec.Wire("renderd").WritePerfetto(w)
}

// ---- pipeline ----

func (s *Server) failQueued() {
	for {
		select {
		case j := <-s.queue:
			j.finish(reply{code: CodeShutdown, err: errors.New("server shutting down")})
		default:
			return
		}
	}
}

func (s *Server) renderLoop(me int, run *worldRun, in <-chan *job, out chan<- rendered) {
	defer run.pipeWG.Done()
	defer close(out)
	for j := range in {
		start := time.Now()
		img := j.plan.RenderRankObserved(me, j.spans.Rank(me), &s.renderStats)
		j.rec.Rendered(time.Since(start))
		out <- rendered{job: j, img: img}
	}
}

func (s *Server) compositeLoop(me int, run *worldRun, c mp.Comm, in <-chan rendered) {
	defer run.pipeWG.Done()
	for rj := range in {
		j := rj.job
		// The comm is long-lived but jobs come and go, so the tracer is
		// attached per frame; the nil store afterwards keeps a finished
		// job's recorder from collecting a later frame's spans. The
		// reply path releases the gathered image once it is encoded.
		c.SetTracer(j.spans.Rank(me))
		img, _, err := j.plan.Frame(c, rj.img, &j.rec.Tally)
		c.SetTracer(nil)

		if err != nil {
			// Any pipeline error kills this world incarnation: half a
			// binary swap cannot be resumed, so the supervisor tears the
			// world down, answers every job left in the in-flight FIFO
			// (this one included) with the retryable code, and rebuilds.
			run.fail(s, fmt.Errorf("rank %d: %w", me, err))
			return
		}
		if me == 0 {
			// j is the FIFO's head: ranks finish frames in dispatch order.
			// Its slot frees before the reply, so a caller answered here
			// finds room for its next frame.
			<-s.inflight
			j.watchdog.Stop()
			j.finish(reply{img: img})
		}
	}
}

// ---- admission ----

// submit validates, admits and waits for one request; it is the frame
// listener's handler and always returns a response (the typed-error
// path never hangs the caller). A degraded server (rank world down,
// rebuilding) still admits: the job waits in the queue until the
// supervisor brings a fresh world up, bounded by the queue depth and
// the request deadline.
func (s *Server) submit(req Request) (*Response, []byte, func([]byte)) {
	if err := req.Check(); err != nil {
		return s.reject(nil, req, CodeBadRequest, err.Error()), nil, nil
	}
	requested, err := NormalizeQuality(req.Quality)
	if err != nil {
		return s.reject(nil, req, CodeBadRequest, err.Error()), nil, nil
	}
	// Arrival is stamped once: the deadline and every reported latency
	// are anchored to it, however many times admission rebuilds the job.
	arrived := time.Now()
	j, resp := s.admit(req, requested, arrived, arrived.Add(req.Deadline(s.cfg.DefaultDeadline)))
	if resp != nil {
		return resp, nil, nil
	}

	rep := <-j.done
	if rep.code != "" {
		return s.reject(j, req, rep.code, rep.err.Error()), nil, nil
	}
	total := time.Since(j.rec.arrived)
	render, composite := time.Duration(j.rec.Render.Load()), time.Duration(j.rec.Composite.Load())
	s.met.frames.Add(1, j.method)
	s.met.wire.Add(j.rec.WireBytes.Load())
	s.met.latency.Observe(total.Seconds(), uint64(j.id))
	s.met.quality.Add(1, j.quality)
	for i, d := range [...]time.Duration{render, composite, j.rec.Gather} {
		s.met.phases.Observe(d.Seconds(), uint64(j.id), phaseNames[i])
	}
	if j.spans != nil {
		s.lastTrace.Store(j.spans)
	}
	s.observeFlight(j, req, "ok", total)
	resp = &Response{
		OK: true,
		// The plan's geometry, not the request's: a preview delivery
		// carries its reduced dimensions, and the payload that follows
		// holds exactly Width*Height bytes either way.
		Width: j.plan.Cfg.Width, Height: j.plan.Cfg.Height,
		Stats: FrameStats{
			QueueMS:   ms(j.rec.queue()),
			RenderMS:  ms(render),
			TotalMS:   ms(total),
			WireBytes: j.rec.WireBytes.Load(),
			Quality:   j.quality,
			Degraded:  j.quality != j.requested,
			TraceID:   j.id.String(),
		},
	}
	if j.sampled {
		resp.Trace = s.frameWire(j, total)
	}
	// The reply is built in pooled bytes (AppendGray overwrites all of
	// them) and goes back to the pool once the listener has written it.
	buf, _ := pool.Bytes.Get(resp.Width * resp.Height)
	gray := rep.img.AppendGray(buf[:0])
	rep.img.Release()
	return resp, gray, putReply
}

// putReply is the release renderd hands its listener, bound once: a
// method value made per reply would allocate.
var putReply = pool.Bytes.Put

// reject answers a request with a typed error, wherever it failed: at
// validation (no job yet), at admission, or — reported through the
// job's reply by whoever gave up on it — in the queue or the rank pool.
// This is the one place a failed request is counted. Once a job exists
// (the request got as far as a plan and a trace identity) the failure
// is also offered to the flight recorder, and the reply carries the
// trace ID and the time spent, one total for both.
func (s *Server) reject(j *job, req Request, code, msg string) *Response {
	s.met.errors.Add(1, code)
	resp := &Response{Code: code, Error: msg}
	if j != nil {
		total := time.Since(j.rec.arrived)
		s.observeFlight(j, req, code, total)
		resp.Stats = FrameStats{TraceID: j.id.String(), TotalMS: ms(total)}
	}
	return resp
}

// enqueue offers j to the admission queue without blocking and returns
// "" when it was admitted, else the typed code and message to reject
// with. The closed check and the enqueue are one critical section:
// Shutdown sets closed under the same lock before the scheduler drains
// the queue, so a job admitted here is guaranteed to be seen (and thus
// answered) by the scheduler — no request can fall between admission
// and drain and hang its handler.
func (s *Server) enqueue(j *job) (code, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CodeShutdown, "server shutting down"
	}
	select {
	case s.queue <- j:
		return "", ""
	default:
		// Admission control: reject now rather than queue unboundedly.
		return CodeOverloaded, fmt.Sprintf("admission queue full (%d deep)", cap(s.queue))
	}
}

// buildJob resolves one request at one quality contract into a
// ready-to-enqueue job. Preview contracts render at PreviewDims
// — a quarter of the rays — and carry the reduced geometry in the
// reply. arrived is when the request reached submit: a job rebuilt at a
// lower contract keeps it, so its reported latencies cover the first
// build and queue offer too. The returned *Response is the typed-error
// reply (nil on success).
func (s *Server) buildJob(req Request, quality, requested string, arrived, deadlineAt time.Time) (*job, *Response) {
	w, h := req.Width, req.Height
	if quality == QualityPreview {
		w, h = PreviewDims(w, h)
	}
	cfg := harness.Config{
		Dataset: req.Dataset,
		Width:   w, Height: h,
		P:      s.cfg.P,
		Method: req.Method,
		RotX:   req.RotX, RotY: req.RotY,
		RenderOpts: render.Options{Shaded: req.Shaded},
	}
	if cfg.Method == "" {
		cfg.Method = DefaultMethod
	}
	plan, err := harness.NewPlan(cfg)
	if err != nil {
		return nil, s.reject(nil, req, CodeBadRequest, err.Error())
	}
	// Trace identity: adopt the caller's context, or mint a local ID so
	// flight entries and exemplars stay correlatable even for untraced
	// requests. Sampling (returning the span tree in the reply) is only
	// ever caller-requested.
	id := req.Trace.Trace()
	sampled := req.Trace != nil && req.Trace.Sampled && !s.cfg.DisableTracing
	if id == 0 && !s.cfg.DisableTracing {
		id = trace.NewID()
	}
	j := &job{
		plan:      plan,
		method:    plan.Cfg.Method,
		quality:   quality,
		requested: requested,
		deadline:  deadlineAt,
		id:        id,
		sampled:   sampled,
		rec:       frameRecord{arrived: arrived},
		done:      make(chan reply, 1),
	}
	// Spans are recorded only where they can be read: in a sampled
	// reply, or on the sidecar's /debug/trace/last and flight recorder.
	if sampled || s.flight != nil {
		j.spans = trace.NewRecorder(s.cfg.P)
		j.spans.SetTraceID(id)
	}
	return j, nil
}

// degradePoll paces the degraded-admission retry loop: long enough for
// the dispatcher to drain a queue slot between attempts, negligible next
// to any real frame time.
const degradePoll = 2 * time.Millisecond

// admit builds the request's job and offers it to the admission queue.
// A full queue bounces the request with CodeOverloaded — unless it
// opted into degraded delivery (DegradeOK): then a full request is
// rebuilt as a preview and re-offered at once, and a preview polls for
// a slot; the only exits are a queue slot, the request deadline,
// shutdown, or a build error. On success the caller waits on the
// returned job.
func (s *Server) admit(req Request, requested string, arrived, deadlineAt time.Time) (*job, *Response) {
	j, resp := s.buildJob(req, requested, requested, arrived, deadlineAt)
	for polled := false; resp == nil; polled = true {
		code, msg := s.enqueue(j)
		switch {
		case code == "":
			return j, nil
		case code != CodeOverloaded || !req.DegradeOK:
			return nil, s.reject(j, req, code, msg)
		}
		if polled { // the first step down is tried at once
			select {
			case <-s.stop:
				return nil, s.reject(j, req, CodeShutdown, "server shutting down")
			case <-time.After(degradePoll):
				if time.Now().After(j.deadline) {
					return nil, s.reject(j, req, CodeDeadline, "deadline expired before a degraded slot freed")
				}
			}
		}
		if j.quality != QualityPreview {
			s.met.degrades.Add(1, "admission", QualityPreview)
			j, resp = s.buildJob(req, QualityPreview, requested, arrived, deadlineAt)
		}
	}
	return nil, resp
}

// frameWire assembles the server's span tree for one finished job from
// its record and total: a process-level track splitting the request
// into queue wait and pipeline time (so it exists even for frames that
// failed before recording anything), plus the per-rank recorder
// tracks. The total is taken after dispatch, so the queue wait lies
// inside it.
func (s *Server) frameWire(j *job, total time.Duration) *trace.Wire {
	procTrack := []trace.Span{{Name: "serve", Dur: total}}
	if !j.rec.dispatched.IsZero() {
		queue := j.rec.queue()
		procTrack = append(procTrack,
			trace.Span{Name: "queue", Dur: queue},
			trace.Span{Name: "pipeline", Start: queue, Dur: total - queue})
	}
	return trace.BuildWire(j.id, "renderd", total, procTrack, j.spans)
}

// observeFlight offers one finished request, with the total its reply
// carries, to the flight recorder; the span tree is built lazily at
// export time so retaining an entry costs a closure, not a wire build.
func (s *Server) observeFlight(j *job, req Request, outcome string, total time.Duration) {
	if s.flight == nil {
		return
	}
	detail := fmt.Sprintf("%s %dx%d %s", j.method, j.plan.Cfg.Width, j.plan.Cfg.Height, req.Dataset)
	if j.quality != QualityFull {
		detail += " " + j.quality
	}
	s.flight.Observe(trace.FlightEntry{
		TraceID: j.id.String(),
		At:      time.Now(),
		Latency: total,
		Outcome: outcome,
		Detail:  detail,
		Trace:   func() *trace.Wire { return s.frameWire(j, total) },
	})
}

// Shutdown stops the server: admission is closed, queued jobs are
// answered with CodeShutdown, in-flight frames finish and are delivered,
// then the resident world quiesces and every listener and connection is
// closed. If ctx expires first, blocked ranks are force-stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.lis.Close()
	err := s.stopWorld(ctx)
	// Every job is answered; handlers are only writing their last reply.
	if derr := s.lis.Drain(ctx); err == nil {
		err = derr
	}
	if herr := s.sidecar.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	return err
}

// stopWorld ends the supervisor and the live world incarnation, leaving
// no admitted job unanswered.
func (s *Server) stopWorld(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) })

	// The supervisor drains the queue and closes the rank pipelines (or,
	// if the world was mid-rebuild, exits without one).
	<-s.supDone
	run := s.takeCur()
	if run == nil {
		return nil // stopped while the world was down
	}

	// Wait for in-flight frames; on timeout, cancel through the world so
	// blocked receives fail instead of waiting out their timeout.
	var err error
	pipeDone := make(chan struct{})
	go func() { run.pipeWG.Wait(); close(pipeDone) }()
	select {
	case <-pipeDone:
	case <-ctx.Done():
		err = ctx.Err()
		run.res.stop()
		<-pipeDone
	}
	// Frames the forced stop (or a failure during the drain) cancelled
	// mid-flight are still in the FIFO; answer them so no handler hangs.
	s.failInflight(run)
	run.res.stop()
	return err
}
