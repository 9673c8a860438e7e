package report

import (
	"strings"
	"testing"
	"time"

	"sortlast/internal/costmodel"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

func sampleRanks() []*stats.Rank {
	a := &stats.Rank{RankID: 0, Method: "BSBRC"}
	s := a.StageAt(1)
	s.RecvPixels = 1000
	s.Composited = 800
	s.BytesRecv = 16000
	s.MsgsRecv = 1
	b := &stats.Rank{RankID: 1, Method: "BSBRC"}
	s2 := b.StageAt(1)
	s2.Composited = 100
	s2.BytesRecv = 8
	s2.MsgsRecv = 1
	s2.RecvRectEmpty = true
	return []*stats.Rank{a, b, nil}
}

func tracedSample() (*trace.Recorder, []*stats.Rank) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 2; i++ {
		r := rec.Rank(i)
		record := func(name, stage string, sleep time.Duration) {
			m := r.Begin()
			time.Sleep(sleep)
			r.End(m, name, stage)
		}
		record(trace.SpanRender, "", time.Millisecond)
		sm := r.Begin()
		record(trace.SpanEncode, "stage1", 200*time.Microsecond)
		record(trace.SpanRecvWait, "stage1", 200*time.Microsecond)
		record(trace.SpanComposite, "stage1", 200*time.Microsecond)
		r.End(sm, "stage1", "stage1")
		record(trace.SpanGather, trace.StageGather, 100*time.Microsecond)
	}
	return rec, sampleRanks()
}

func TestMeasuredVsModeled(t *testing.T) {
	rec, ranks := tracedSample()
	out := MeasuredVsModeled(rec, ranks, costmodel.SP2())
	for _, want := range []string{"rank 0", "rank 1", "stage1", "render", "model_comp", "meas%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The gather is the row after the last compositing stage, on every
	// rank, with the modeled term beside the measured span.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "rank ") || strings.HasPrefix(line, "rank 0") {
			continue
		}
		if prev := strings.Fields(lines[i-1]); prev[0] != trace.StageGather {
			t.Errorf("row before %q is %q, want the gather row", line, lines[i-1])
		}
	}
	last := strings.Fields(lines[len(lines)-1])
	if last[0] != trace.StageGather || !strings.HasSuffix(last[1], "ms") {
		t.Errorf("last row %q is not a measured gather row", lines[len(lines)-1])
	}
}

func TestMeasuredVsModeledNoTrace(t *testing.T) {
	out := MeasuredVsModeled(nil, sampleRanks(), costmodel.SP2())
	if !strings.Contains(out, "no trace") {
		t.Errorf("nil-recorder report = %q", out)
	}
}

// TestMeasuredVsModeledFlagsDivergence builds a trace whose stage share
// contradicts the model: two stages with equal modeled cost but wildly
// unequal measured time must trip the divergence flag.
func TestMeasuredVsModeledFlagsDivergence(t *testing.T) {
	rec := trace.NewRecorder(1)
	r := rec.Rank(0)
	span := func(name, stage string, sleep time.Duration) {
		m := r.Begin()
		time.Sleep(sleep)
		r.End(m, name, stage)
	}
	span("stage1", "stage1", 5*time.Millisecond)
	span("stage2", "stage2", 100*time.Microsecond)

	rank := &stats.Rank{RankID: 0, Method: "BSBRC"}
	for k := 1; k <= 2; k++ {
		s := rank.StageAt(k)
		s.Composited = 1000
		s.BytesRecv = 16000
		s.MsgsRecv = 1
	}
	out := MeasuredVsModeled(rec, []*stats.Rank{rank}, costmodel.SP2())
	if !strings.Contains(out, "diverges") {
		t.Errorf("no divergence flagged:\n%s", out)
	}
}
