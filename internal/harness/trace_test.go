package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"sortlast/internal/trace"
)

// TestTracedBSBRCRun is the acceptance run for the span recorder: a
// BSBRC frame at P=8 must produce, on every rank, a render span plus
// distinct encode/send-wait/recv-wait/composite slices for each of the
// three binary-swap stages, properly nested, and the Perfetto export
// must carry one track per rank.
func TestTracedBSBRCRun(t *testing.T) {
	rec := trace.NewRecorder(8)
	cfg := Config{
		Dataset: "cube", Method: "bsbrc",
		Width: 64, Height: 64, P: 8, RotY: 30,
		Trace: rec,
	}
	row, img, ranks, err := RunFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row == nil || img == nil || len(ranks) != 8 {
		t.Fatalf("RunFull returned row=%v img=%v ranks=%d", row, img, len(ranks))
	}

	stages := []string{"stage1", "stage2", "stage3"}
	totalComposite := 0
	for r := 0; r < 8; r++ {
		spans := rec.Rank(r).Spans()
		if err := trace.ValidateNesting(spans); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		count := func(name, stage string) int {
			n := 0
			for _, s := range spans {
				if s.Name == name && s.Stage == stage {
					n++
				}
			}
			return n
		}
		for _, phase := range []string{trace.SpanRender, trace.SpanRaycast, trace.SpanCompositing, trace.SpanBound} {
			if count(phase, "") != 1 {
				t.Errorf("rank %d: %d %q spans, want 1", r, count(phase, ""), phase)
			}
		}
		if count(trace.SpanGather, trace.StageGather) != 1 {
			t.Errorf("rank %d: missing gather span", r)
		}
		for k, lbl := range stages {
			for _, name := range []string{lbl, trace.SpanEncode, trace.SpanSendWait, trace.SpanRecvWait} {
				if count(name, lbl) != 1 {
					t.Errorf("rank %d stage %s: %d %q spans, want 1", r, lbl, count(name, lbl), name)
				}
			}
			// The composite slice appears exactly when the stage received
			// a non-empty rectangle; the run's own counters say which.
			want := 0
			if !ranks[r].Stages[k].RecvRectEmpty {
				want = 1
			}
			if count(trace.SpanComposite, lbl) != want {
				t.Errorf("rank %d stage %s: %d composite spans, want %d",
					r, lbl, count(trace.SpanComposite, lbl), want)
			}
			totalComposite += count(trace.SpanComposite, lbl)
		}
		// Child slices sit inside their stage umbrella.
		byName := map[string]trace.Span{}
		for _, s := range spans {
			byName[s.Name+"/"+s.Stage] = s
		}
		for _, lbl := range stages {
			u := byName[lbl+"/"+lbl]
			for _, name := range []string{trace.SpanEncode, trace.SpanSendWait, trace.SpanRecvWait, trace.SpanComposite} {
				c, ok := byName[name+"/"+lbl]
				if !ok {
					continue
				}
				if c.Start < u.Start || c.End() > u.End() {
					t.Errorf("rank %d stage %s: %q [%v,%v] outside umbrella [%v,%v]",
						r, lbl, name, c.Start, c.End(), u.Start, u.End())
				}
			}
		}
	}

	if totalComposite == 0 {
		t.Error("no composite spans recorded anywhere: the dense cube should over-blend at most stages")
	}

	var buf bytes.Buffer
	if err := rec.Wire("sortlast").WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f trace.File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	tids := map[int]bool{}
	threadNames := map[string]bool{}
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			tids[ev.TID] = true
		case "M":
			if ev.Name == "thread_name" {
				threadNames[fmt.Sprint(ev.Args["name"])] = true
			}
		}
	}
	if len(tids) != 8 {
		t.Errorf("export has %d rank tracks, want 8", len(tids))
	}
	if len(threadNames) != 8 {
		t.Errorf("export names %d threads, want 8", len(threadNames))
	}
}

// TestUntracedRunUnchanged pins the zero-value behavior: a run with no
// recorder attached still completes and produces a sane row.
func TestUntracedRunUnchanged(t *testing.T) {
	cfg := Config{Dataset: "cube", Method: "bs", Width: 32, Height: 32, P: 2}
	row, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.TotalMS <= 0 || row.NonBlank <= 0 {
		t.Fatalf("row = %+v", row)
	}
}
