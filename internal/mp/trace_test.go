package mp

import (
	"testing"

	"sortlast/internal/trace"
)

func TestCommRecordsWaitSpans(t *testing.T) {
	rec := trace.NewRecorder(2)
	err := Run(2, Options{}, func(c Comm) error {
		c.SetTracer(rec.Rank(c.Rank()))
		if tr := c.Tracer(); tr == nil || tr != rec.Rank(c.Rank()) {
			t.Errorf("rank %d: Tracer() = %v", c.Rank(), c.Tracer())
		}
		c.SetStage("stage1")
		_, err := c.Sendrecv(1-c.Rank(), 7, []byte("ping"))
		c.SetStage("")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		spans := rec.Rank(r).Spans()
		var sends, recvs int
		for _, s := range spans {
			if s.Stage != "stage1" {
				t.Errorf("rank %d: span %q stage = %q, want stage1", r, s.Name, s.Stage)
			}
			switch s.Name {
			case trace.SpanSendWait:
				sends++
			case trace.SpanRecvWait:
				recvs++
			default:
				t.Errorf("rank %d: unexpected span %q", r, s.Name)
			}
		}
		if sends != 1 || recvs != 1 {
			t.Fatalf("rank %d: got %d send-wait, %d recv-wait spans, want 1 each", r, sends, recvs)
		}
	}
}

func TestCollectivesRecordWaitSpans(t *testing.T) {
	rec := trace.NewRecorder(4)
	err := Run(4, Options{}, func(c Comm) error {
		c.SetTracer(rec.Rank(c.Rank()))
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err := c.Gather(0, []byte{byte(c.Rank())})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank blocks at least once across barrier + gather; rank 0
	// receives from all three others in the gather.
	for r := 0; r < 4; r++ {
		waited := false
		for _, s := range rec.Rank(r).Spans() {
			waited = waited || ((s.Name == trace.SpanRecvWait || s.Name == trace.SpanSendWait) && s.Dur > 0)
		}
		if !waited {
			t.Errorf("rank %d: no comm spans recorded in collectives", r)
		}
	}
}

func TestUntracedCommRecordsNothing(t *testing.T) {
	err := Run(2, Options{}, func(c Comm) error {
		if c.Tracer() != nil {
			t.Errorf("rank %d: fresh comm has tracer attached", c.Rank())
		}
		_, err := c.Sendrecv(1-c.Rank(), 3, []byte("x"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
