package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// World supervision: the resident rank pool is one *incarnation* of the
// world, not the server. A pipeline error (a rank's composite failed, a
// connection reset) or a watchdog wedge (a frame stuck past
// Config.FrameTimeout — the paper's failure mode of one slow SP2 rank
// stalling the whole binary-swap exchange) fails the incarnation: every
// in-flight job is answered with the typed, retryable CodeWorldFailed,
// the world is stopped, and the supervisor rebuilds a fresh rank pool
// under capped exponential backoff. Requests admitted while the world is
// down simply wait in the admission queue (or bounce with CodeOverloaded
// when it fills), so the server degrades instead of hanging forever.

// Restart backoff bounds: quick first retry (most failures are one bad
// frame or an injected fault), capped so a persistently failing world
// does not busy-rebuild.
const (
	restartBackoffMin = 50 * time.Millisecond
	restartBackoffMax = 5 * time.Second
)

// errWedged is the watchdog's failure reason.
var errWedged = errors.New("server: frame watchdog expired (rank world wedged)")

// worldRun is one incarnation of the resident world: the rank pool, its
// pipeline goroutines, the per-frame watchdog, and the set of jobs
// currently inside the pipeline. Exactly one incarnation is live at a
// time; the supervisor replaces it after a failure.
type worldRun struct {
	res       *procResident
	renderChs []chan *job
	pipeWG    sync.WaitGroup // render+composite loops + watchdog

	failed   chan struct{} // closed on the first failure
	failOnce sync.Once
	failErr  error

	mu       sync.Mutex
	inflight map[*job]time.Time // job → watchdog deadline

	watchStop chan struct{}
	watchOnce sync.Once
}

// newWorldRun builds a fresh resident world and spawns its per-rank
// pipeline loops and the watchdog.
func (s *Server) newWorldRun() (*worldRun, error) {
	res, err := newProcResident(s.cfg.P, s.cfg.Chaos)
	if err != nil {
		return nil, err
	}
	run := &worldRun{
		res:       res,
		renderChs: make([]chan *job, s.cfg.P),
		failed:    make(chan struct{}),
		inflight:  make(map[*job]time.Time),
		watchStop: make(chan struct{}),
	}
	for r := 0; r < s.cfg.P; r++ {
		renderCh := make(chan *job, s.cfg.MaxInFlight)
		compCh := make(chan rendered, s.cfg.MaxInFlight)
		run.renderChs[r] = renderCh
		run.pipeWG.Add(2)
		go s.renderLoop(r, run, renderCh, compCh)
		go s.compositeLoop(r, run, res.cs[r], compCh)
	}
	run.pipeWG.Add(1)
	go s.watchdog(run)
	return run, nil
}

// fail marks the incarnation dead: the reason is recorded, blocked
// receives are failed (and injected stalls released) so every pipeline
// loop drains promptly, and the failed channel wakes the supervisor.
// Idempotent; the first reason wins.
func (run *worldRun) fail(s *Server, err error) {
	run.failOnce.Do(func() {
		run.failErr = err
		e := err
		s.lastWorldErr.Store(&e)
		run.res.stop()
		close(run.failed)
	})
}

func (run *worldRun) stopWatchdog() {
	run.watchOnce.Do(func() { close(run.watchStop) })
}

// track registers a dispatched job with its watchdog deadline. Exactly
// one token is held per tracked job; whoever untracks it releases the
// token.
func (run *worldRun) track(j *job, deadline time.Time) {
	run.mu.Lock()
	run.inflight[j] = deadline
	run.mu.Unlock()
}

// untrack removes a job, reporting whether this caller owned the
// removal (and with it the job's token).
func (run *worldRun) untrack(j *job) bool {
	run.mu.Lock()
	defer run.mu.Unlock()
	if _, ok := run.inflight[j]; !ok {
		return false
	}
	delete(run.inflight, j)
	return true
}

// takeInflight removes and returns every tracked job; teardown answers
// them.
func (run *worldRun) takeInflight() []*job {
	run.mu.Lock()
	defer run.mu.Unlock()
	jobs := make([]*job, 0, len(run.inflight))
	for j := range run.inflight {
		jobs = append(jobs, j)
	}
	run.inflight = make(map[*job]time.Time)
	return jobs
}

// expired returns the worst overrun among in-flight jobs past their
// watchdog deadline at now; worst > 0 means the incarnation is wedged
// and must fail.
func (run *worldRun) expired(now time.Time) (worst time.Duration) {
	run.mu.Lock()
	defer run.mu.Unlock()
	for _, dl := range run.inflight {
		if over := now.Sub(dl); over > worst {
			worst = over
		}
	}
	return worst
}

// watchdog fails the incarnation when an in-flight frame makes no
// progress past its per-frame deadline — the wedged-world case (a
// stalled rank, a lost message) where no rank ever returns an error.
func (s *Server) watchdog(run *worldRun) {
	defer run.pipeWG.Done()
	interval := s.frameTimeout() / 8
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-run.watchStop:
			return
		case <-run.failed:
			return
		case now := <-ticker.C:
			if over := run.expired(now); over > 0 {
				run.fail(s, fmt.Errorf("%w: frame %v past its %v deadline",
					errWedged, over+s.frameTimeout(), s.frameTimeout()))
				return
			}
		}
	}
}

// supervise owns the world lifecycle: dispatch against the current
// incarnation until the server stops or the incarnation fails; on
// failure, tear down, answer the casualties, and rebuild under capped
// exponential backoff. Runs as one goroutine for the server's lifetime.
func (s *Server) supervise(run *worldRun) {
	defer close(s.supDone)
	backoff := restartBackoffMin
	for {
		if stopped := s.dispatch(run); stopped {
			// Graceful stop: leave the incarnation for Shutdown to drain
			// (in-flight frames finish and are delivered).
			for _, ch := range run.renderChs {
				close(ch)
			}
			run.stopWatchdog()
			return
		}

		// The incarnation failed: count the restart, go degraded, tear
		// down, answer every in-flight job with the retryable code.
		s.met.worldRestarts.Add(1)
		s.degraded.Store(true)
		s.teardownFailed(run)

		// Rebuild under capped exponential backoff. Admission stays open
		// the whole time: requests queue (bounded) and dispatch resumes
		// on the fresh world.
		for {
			select {
			case <-s.stop:
				s.failQueued()
				return
			case <-time.After(backoff):
			}
			next, err := s.newWorldRun()
			if err != nil {
				e := fmt.Errorf("server: world rebuild: %w", err)
				s.lastWorldErr.Store(&e)
				if backoff *= 2; backoff > restartBackoffMax {
					backoff = restartBackoffMax
				}
				continue
			}
			run = next
			break
		}
		backoff = restartBackoffMin
		s.setCur(run)
		s.degraded.Store(false)
	}
}

// dispatch moves admitted jobs from the queue into the incarnation's
// rank pool, bounded by the in-flight tokens. It owns deadline
// cancellation for queued jobs and returns true on server stop, false
// on world failure.
func (s *Server) dispatch(run *worldRun) (stopped bool) {
	for {
		select {
		case <-s.stop:
			s.failQueued()
			return true
		case <-run.failed:
			return false
		case j := <-s.queue:
			if time.Now().After(j.deadline) {
				j.finish(reply{code: CodeDeadline, err: errors.New("deadline expired while queued")})
				continue
			}
			select {
			case s.tokens <- struct{}{}:
			case <-s.stop:
				j.finish(reply{code: CodeShutdown, err: errors.New("server shutting down")})
				s.failQueued()
				return true
			case <-run.failed:
				// Admitted, but the world died before a pipeline slot
				// freed; answer retryable so the client can try again
				// against the rebuilt world.
				j.finish(reply{code: CodeWorldFailed, err: fmt.Errorf("rank world failed: %w", run.failErr)})
				return false
			}
			j.rec.dispatched = time.Now()
			run.track(j, j.rec.dispatched.Add(s.frameTimeout()))
			for _, ch := range run.renderChs {
				ch <- j // never blocks: token bound ≥ channel backlog
			}
		}
	}
}

// teardownFailed disposes a failed incarnation: pipeline loops drain
// (fail already force-stopped the world, so nothing blocks), every job
// still inside the pipeline is answered with CodeWorldFailed and its
// token released.
func (s *Server) teardownFailed(run *worldRun) {
	s.setCur(nil)
	for _, ch := range run.renderChs {
		close(ch)
	}
	run.stopWatchdog()
	run.pipeWG.Wait()
	for _, j := range run.takeInflight() {
		<-s.tokens
		j.finish(reply{code: CodeWorldFailed, err: fmt.Errorf("rank world failed: %w", run.failErr)})
	}
}

func (s *Server) setCur(run *worldRun) {
	s.curMu.Lock()
	s.cur = run
	s.curMu.Unlock()
}

func (s *Server) takeCur() *worldRun {
	s.curMu.Lock()
	defer s.curMu.Unlock()
	run := s.cur
	s.cur = nil
	return run
}

func (s *Server) frameTimeout() time.Duration {
	if s.cfg.FrameTimeout > 0 {
		return s.cfg.FrameTimeout
	}
	return 60 * time.Second
}
