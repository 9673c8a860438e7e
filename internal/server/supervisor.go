package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// World supervision: the resident rank pool is one *incarnation* of the
// world, not the server. A pipeline error (a rank's composite failed, a
// connection reset) or a watchdog wedge (a frame not done within
// Config.FrameTimeout — the paper's failure mode of one slow SP2 rank
// stalling the whole binary-swap exchange) fails the incarnation: the
// world is stopped, every frame in the in-flight FIFO is answered with
// the typed, retryable CodeWorldFailed, and the supervisor rebuilds a
// fresh rank pool under capped exponential backoff. Requests admitted
// while the world is down wait in the admission queue (or bounce with
// CodeOverloaded when it fills), and a job the dispatcher took from the
// queue after the failure is carried to the rebuilt world, so only
// frames that were inside the failed world are answered with its error.

// Restart backoff bounds: quick first retry (most failures are one bad
// frame or an injected fault), capped so a persistently failing world
// does not busy-rebuild.
const (
	restartBackoffMin = 50 * time.Millisecond
	restartBackoffMax = 5 * time.Second
)

// errWedged is the watchdog's failure reason.
var errWedged = errors.New("server: frame watchdog expired (rank world wedged)")

// worldRun is one incarnation of the resident world: the rank pool and
// its pipeline goroutines. Exactly one incarnation is live at a time;
// the supervisor replaces it after a failure. The frames inside it are
// the server's in-flight FIFO, which outlives incarnations.
type worldRun struct {
	res       *procResident
	renderChs []chan *job
	pipeWG    sync.WaitGroup // render+composite loops

	failed   chan struct{} // closed on the first failure
	failOnce sync.Once
	failErr  error
}

// newWorldRun builds a fresh resident world and spawns its per-rank
// pipeline loops.
func (s *Server) newWorldRun() (*worldRun, error) {
	res, err := newProcResident(s.cfg.P, s.cfg.Chaos)
	if err != nil {
		return nil, err
	}
	run := &worldRun{
		res:       res,
		renderChs: make([]chan *job, s.cfg.P),
		failed:    make(chan struct{}),
	}
	for r := 0; r < s.cfg.P; r++ {
		renderCh := make(chan *job, s.cfg.MaxInFlight)
		compCh := make(chan rendered, s.cfg.MaxInFlight)
		run.renderChs[r] = renderCh
		run.pipeWG.Add(2)
		go s.renderLoop(r, run, renderCh, compCh)
		go s.compositeLoop(r, run, res.cs[r], compCh)
	}
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

// supervise owns the world lifecycle: dispatch against the current
// incarnation until the server stops or the incarnation fails; on
// failure, tear down, answer the casualties, and rebuild under capped
// exponential backoff. Runs as one goroutine for the server's lifetime.
func (s *Server) supervise(run *worldRun) {
	defer close(s.supDone)
	backoff := restartBackoffMin
	var carried *job
	for {
		var stopped bool
		if carried, stopped = s.dispatch(run, carried); stopped {
			// Graceful stop: leave the incarnation for Shutdown to drain
			// (in-flight frames finish and are delivered).
			for _, ch := range run.renderChs {
				close(ch)
			}
			return
		}

		// The incarnation failed: count the restart, go degraded, tear
		// down, answer every in-flight job with the retryable code.
		s.met.worldRestarts.Add(1)
		s.degraded.Store(true)
		s.teardownFailed(run)

		// Rebuild under capped exponential backoff. Admission stays open
		// the whole time: requests queue (bounded) and dispatch resumes
		// on the fresh world, the carried job first.
		for {
			select {
			case <-s.stop:
				if carried != nil {
					carried.finish(reply{code: CodeShutdown, err: errors.New("server shutting down")})
				}
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

// dispatch moves admitted jobs, carried first, from the queue into the
// incarnation's rank pool through the in-flight FIFO, whose capacity is
// the in-flight bound. It owns deadline cancellation for queued jobs and
// returns stopped on server stop. On world failure it returns the job it
// holds, if any: a job taken after the failure never entered this world,
// so it is carried to the next one instead of answered with this one's
// error.
func (s *Server) dispatch(run *worldRun, carried *job) (_ *job, stopped bool) {
	for j := carried; ; j = nil {
		if j == nil {
			select {
			case <-s.stop:
				s.failQueued()
				return nil, true
			case <-run.failed:
				return nil, false
			case j = <-s.queue:
			}
		}
		select {
		case <-run.failed:
			return j, false
		default:
		}
		if time.Now().After(j.deadline) {
			j.finish(reply{code: CodeDeadline, err: errors.New("deadline expired while queued")})
			continue
		}
		select {
		case s.inflight <- j:
		case <-s.stop:
			j.finish(reply{code: CodeShutdown, err: errors.New("server shutting down")})
			s.failQueued()
			return nil, true
		case <-run.failed:
			return j, false
		}
		j.rec.dispatched = time.Now()
		j.watchdog = time.AfterFunc(s.cfg.FrameTimeout, func() {
			run.fail(s, fmt.Errorf("%w: frame not done within %v", errWedged, s.cfg.FrameTimeout))
		})
		for _, ch := range run.renderChs {
			ch <- j // never blocks: the FIFO bound ≥ channel backlog
		}
	}
}

// teardownFailed disposes a failed incarnation: pipeline loops drain
// (fail already force-stopped the world, so nothing blocks), then every
// job still in the in-flight FIFO is answered with CodeWorldFailed.
func (s *Server) teardownFailed(run *worldRun) {
	s.setCur(nil)
	for _, ch := range run.renderChs {
		close(ch)
	}
	run.pipeWG.Wait()
	s.failInflight(run)
}

// failInflight answers every job left in the in-flight FIFO with
// CodeWorldFailed and stops its watchdog: the frames a failed or
// force-stopped incarnation will never deliver. It runs only after
// run's pipeline loops have returned, so rank 0 no longer takes from
// the FIFO.
func (s *Server) failInflight(run *worldRun) {
	for {
		select {
		case j := <-s.inflight:
			j.watchdog.Stop()
			j.finish(reply{code: CodeWorldFailed, err: fmt.Errorf("rank world failed: %w", run.failErr)})
		default:
			return
		}
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
