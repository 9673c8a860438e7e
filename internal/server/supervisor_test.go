package server

import (
	"testing"
	"time"
)

// dispatchServer is the part of a Server that dispatch touches.
func dispatchServer(queue, inflight int) *Server {
	return &Server{
		cfg:      Config{P: 1}.withDefaults(),
		queue:    make(chan *job, queue),
		inflight: make(chan *job, inflight),
		stop:     make(chan struct{}),
	}
}

func liveJob(deadline time.Time) *job { return &job{deadline: deadline, done: make(chan reply, 1)} }

// A request admitted after its world failed never entered that world, so
// it must wait for the rebuilt one, not be answered with the dead one's
// error. Here the failure and the queued job are both ready when
// dispatch runs: a dispatcher whose select mixes them answers or
// dispatches the job about half the time, so many tries find it.
func TestJobQueuedAfterFailureWaitsForNextWorld(t *testing.T) {
	carried := 0
	for i := 0; i < 100; i++ {
		s := dispatchServer(1, 1)
		run := &worldRun{failed: make(chan struct{})}
		close(run.failed)
		j := liveJob(time.Now().Add(time.Minute))
		s.queue <- j

		got, stopped := s.dispatch(run, nil)
		if stopped {
			t.Fatal("dispatch reported a stop; the world failed")
		}
		if len(j.done) != 0 {
			t.Fatalf("try %d: job answered %q by the failed world", i, (<-j.done).code)
		}
		if len(s.inflight) != 0 {
			t.Fatalf("try %d: job dispatched into the failed world", i)
		}
		// The job comes back for the next world either way: carried by
		// dispatch, or still at the head of the queue.
		switch {
		case got == j:
			carried++
		case got != nil:
			t.Fatalf("try %d: dispatch carried a job it was never given", i)
		case len(s.queue) != 1 || <-s.queue != j:
			t.Fatalf("try %d: job neither carried nor queued", i)
		}
	}
	t.Logf("carried by dispatch in %d of 100 tries, left queued in the rest", carried)
}

// A carried job is dispatched before anything queued, unless its
// deadline passed while it waited for the rebuilt world: then it is
// answered deadline_exceeded and the queue's head goes first.
func TestCarriedJobDispatchesFirst(t *testing.T) {
	for _, expired := range []bool{false, true} {
		s := dispatchServer(1, 2)
		run := &worldRun{failed: make(chan struct{}), renderChs: []chan *job{make(chan *job, 2)}}
		carried := liveJob(time.Now().Add(time.Minute))
		if expired {
			carried.deadline = time.Now().Add(-time.Second)
		}
		queued := liveJob(time.Now().Add(time.Minute))
		s.queue <- queued

		stopped := make(chan bool)
		go func() {
			_, st := s.dispatch(run, carried)
			stopped <- st
		}()
		first := <-run.renderChs[0]
		close(s.stop)
		if !<-stopped {
			t.Fatal("dispatch did not report the stop")
		}
		for _, j := range []*job{carried, queued} {
			if j.watchdog != nil {
				j.watchdog.Stop()
			}
		}

		want := carried
		if expired {
			want = queued
			if r := <-carried.done; r.code != CodeDeadline {
				t.Errorf("expired carried job answered %q, want %q", r.code, CodeDeadline)
			}
		}
		if first != want {
			t.Errorf("expired=%v: first dispatched job is not the one expected", expired)
		}
	}
}
