package server

import (
	"testing"
	"time"

	"sortlast/internal/trace"
)

// A request that admission steps down is rebuilt as a new job; the
// rebuilt job must keep the arrival time submit stamped, so the reply's
// TotalMS/QueueMS, the latency histogram and the flight entry cover the
// first plan build and queue offer instead of starting at the rebuild.
func TestDegradedJobKeepsArrivalStamp(t *testing.T) {
	s := &Server{
		cfg:   Config{P: 2}.withDefaults(),
		queue: make(chan *job, 1),
		stop:  make(chan struct{}),
	}
	s.met = newMetrics(func() int { return len(s.queue) }, func() int { return 0 }, nil, nil)
	s.queue <- &job{} // the one slot is taken: the first offer bounces

	// Free the slot only once admit has stepped down, so the job it
	// returns is the rebuilt one.
	done := make(chan struct{})
	defer close(done)
	go func() {
		for s.met.degrades.Load("admission", QualityPreview) == 0 {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
		<-s.queue
	}()

	// An arrival in the past cannot be mistaken for a stamp taken inside
	// admit.
	arrived := time.Now().Add(-time.Second)
	req := Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, DegradeOK: true}
	j, resp := s.admit(req, QualityFull, arrived, arrived.Add(time.Minute))
	if resp != nil {
		t.Fatalf("admit rejected the request: %+v", resp)
	}
	if j.quality != QualityPreview || j.requested != QualityFull {
		t.Fatalf("admitted at quality=%q requested=%q, want preview/full", j.quality, j.requested)
	}
	if !j.rec.arrived.Equal(arrived) {
		t.Errorf("degraded job stamped %v after the arrival it was given", j.rec.arrived.Sub(arrived))
	}
	if want := arrived.Add(time.Minute); !j.deadline.Equal(want) {
		t.Errorf("degraded job deadline moved by %v", j.deadline.Sub(want))
	}
}

// A frame's spans are recorded only where they can be read: in a
// sampled reply, or by the flight recorder and /debug/trace/last that a
// sidecar serves. Neither, and the job carries no recorder.
func TestSpansOnlyWhenReadable(t *testing.T) {
	req := Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32}
	sampled := req
	sampled.Trace = trace.NewContext()
	for _, c := range []struct {
		flight bool
		req    Request
		want   bool
	}{{false, req, false}, {false, sampled, true}, {true, req, true}} {
		s := &Server{cfg: Config{P: 2}.withDefaults()}
		if c.flight {
			s.flight = trace.NewFlight(1)
		}
		j, resp := s.buildJob(c.req, QualityFull, QualityFull, time.Now(), time.Now().Add(time.Minute))
		if resp != nil {
			t.Fatalf("buildJob rejected %+v: %+v", c.req, resp)
		}
		if got := j.spans != nil; got != c.want {
			t.Errorf("flight %v, sampled %v: recorder %v, want %v", c.flight, c.req.Trace != nil, got, c.want)
		}
	}
}
