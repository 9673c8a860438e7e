package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestDisabledRankIsNoop(t *testing.T) {
	var r *Rank
	m := r.Begin()
	r.End(m, SpanEncode, "stage1")
	if got := r.Spans(); got != nil {
		t.Fatalf("nil rank recorded spans: %v", got)
	}
	if r.Total(SpanEncode) != 0 || r.ID() != -1 {
		t.Fatal("nil rank accessors not zero-valued")
	}
	var rec *Recorder
	if rec.Rank(0) != nil || rec.Size() != 0 || rec.Snapshot() != nil || rec.MaxTotal(SpanRender) != 0 {
		t.Fatal("nil recorder accessors not zero-valued")
	}
	rec.Reset()
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under -race")
	}
	var r *Rank
	allocs := testing.AllocsPerRun(1000, func() {
		m := r.Begin()
		r.End(m, SpanComposite, "stage1")
	})
	if allocs != 0 {
		t.Fatalf("disabled Begin/End allocates %v per op, want 0", allocs)
	}
}

func TestEnabledSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under -race")
	}
	rec := NewRecorder(1)
	r := rec.Rank(0)
	// Warm the buffer past the preallocated capacity once, then assert
	// steady-state frames (Reset + re-record) never allocate.
	for i := 0; i < 2*spansPerRankHint; i++ {
		r.End(r.Begin(), SpanComposite, "stage1")
	}
	rec.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		rec.Reset()
		for i := 0; i < spansPerRankHint; i++ {
			r.End(r.Begin(), SpanComposite, "stage1")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state recording allocates %v per frame, want 0", allocs)
	}
}

func TestRecorderRecordsAlignedSpans(t *testing.T) {
	rec := NewRecorder(2)
	r0, r1 := rec.Rank(0), rec.Rank(1)
	m := r0.Begin()
	time.Sleep(time.Millisecond)
	r0.End(m, SpanRender, "")
	m = r1.Begin()
	r1.End(m, SpanEncode, "stage1")

	snap := rec.Snapshot()
	if len(snap) != 2 || len(snap[0]) != 1 || len(snap[1]) != 1 {
		t.Fatalf("snapshot shape = %v", snap)
	}
	if snap[0][0].Name != SpanRender || snap[0][0].Dur < time.Millisecond {
		t.Fatalf("rank0 span = %+v", snap[0][0])
	}
	if snap[1][0].Stage != "stage1" {
		t.Fatalf("rank1 span = %+v", snap[1][0])
	}
	if rec.MaxTotal(SpanRender) != r0.Total(SpanRender) {
		t.Fatal("MaxTotal disagrees with the only rank rendering")
	}
	rec.Reset()
	if got := rec.Snapshot(); len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("Reset left spans: %v", got)
	}
}

func TestWritePerfettoSchema(t *testing.T) {
	rec := NewRecorder(2)
	for i := 0; i < 2; i++ {
		r := rec.Rank(i)
		m := r.Begin()
		cm := r.Begin()
		r.End(cm, SpanComposite, "stage1")
		r.End(m, "stage1", "stage1")
	}
	var buf bytes.Buffer
	if err := rec.Wire("sortlast").WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	tids := map[int]bool{}
	var threads, complete int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads++
			}
		case "X":
			complete++
			tids[ev.TID] = true
			if ev.TS < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if threads != 2 {
		t.Fatalf("thread_name metadata events = %d, want 2", threads)
	}
	if complete != 4 {
		t.Fatalf("complete events = %d, want 4", complete)
	}
	if len(tids) != 2 {
		t.Fatalf("distinct rank tracks = %d, want 2", len(tids))
	}
}

func TestValidateNesting(t *testing.T) {
	ok := []Span{
		{Name: "stage1", Start: 0, Dur: 100},
		{Name: SpanEncode, Start: 10, Dur: 20},
		{Name: SpanComposite, Start: 40, Dur: 60}, // child ending exactly with parent
		{Name: "stage2", Start: 100, Dur: 50},     // sibling sharing a boundary
	}
	if err := ValidateNesting(ok); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	bad := []Span{
		{Name: "stage1", Start: 0, Dur: 100},
		{Name: SpanEncode, Start: 50, Dur: 100}, // straddles stage1's end
	}
	if err := ValidateNesting(bad); err == nil {
		t.Fatal("overlapping non-nested spans accepted")
	}
	if err := ValidateNesting(nil); err != nil {
		t.Fatalf("empty span list rejected: %v", err)
	}
}

func TestEnabledZeroAllocsWithTraceID(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under -race")
	}
	rec := NewRecorder(1)
	rec.SetTraceID(NewID())
	r := rec.Rank(0)
	for i := 0; i < 2*spansPerRankHint; i++ {
		r.End(r.Begin(), SpanComposite, "stage1")
	}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Reset()
		rec.SetTraceID(42) // re-tag each frame, as the server does
		for i := 0; i < spansPerRankHint; i++ {
			r.End(r.Begin(), SpanComposite, "stage1")
		}
	})
	if allocs != 0 {
		t.Fatalf("recording with a trace ID attached allocates %v per frame, want 0", allocs)
	}
	if rec.TraceID() != 42 {
		t.Fatalf("trace id = %v, want 42", rec.TraceID())
	}
	rec.Reset()
	if rec.TraceID() != 0 {
		t.Fatal("Reset kept the trace id")
	}
}

// TestConcurrentRecordersExport models hedged dispatch: two replicas
// record the same request concurrently into separate recorders, the
// gateway exports both as sibling attempt processes. Each track must
// still validate and the merged export must stay well-formed while the
// recorders are live.
func TestConcurrentRecordersExport(t *testing.T) {
	id := NewID()
	recs := []*Recorder{NewRecorder(2), NewRecorder(2)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, rec := range recs {
		rec.SetTraceID(id)
		for i := 0; i < rec.Size(); i++ {
			wg.Add(1)
			go func(r *Rank) {
				defer wg.Done()
				// Bounded: a writer that outruns the exporter stops at
				// the rank's span cap instead of spinning for the whole
				// export loop.
				for n := 0; n < MaxRankSpans/2; n++ {
					select {
					case <-stop:
						return
					default:
					}
					m := r.Begin()
					cm := r.Begin()
					r.End(cm, SpanEncode, "stage1")
					r.End(m, "stage1", "stage1")
				}
			}(rec.Rank(i))
		}
	}
	// Export repeatedly while the ranks are still recording.
	for iter := 0; iter < 50; iter++ {
		wires := make([]*Wire, len(recs))
		for i, rec := range recs {
			wires[i] = BuildWire(id, "attempt", time.Millisecond, nil, rec)
		}
		merged := &Wire{TraceID: id.String(), Procs: append(wires[0].Procs, wires[1].Procs...)}
		var buf bytes.Buffer
		if err := merged.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		var f File
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatalf("live export is not valid JSON: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	// After the dust settles every rank track must be a proper tree.
	for _, rec := range recs {
		for _, spans := range rec.Snapshot() {
			if err := ValidateNesting(spans); err != nil {
				t.Fatalf("concurrent recording broke nesting: %v", err)
			}
		}
	}
}

// TestRankSpanCap pins the recorder's memory bound: a rank keeps at most
// MaxRankSpans spans between resets, counts what it discards, and a wire
// tree built from a recorder that dropped spans says it is truncated.
func TestRankSpanCap(t *testing.T) {
	rec := NewRecorder(2)
	r := rec.Rank(1)
	const over = 10
	for i := 0; i < MaxRankSpans+over; i++ {
		r.End(r.Begin(), SpanEncode, "stage1")
	}
	if n := len(r.Spans()); n != MaxRankSpans {
		t.Fatalf("rank holds %d spans, cap is %d", n, MaxRankSpans)
	}
	if r.Dropped() != over || rec.Dropped() != over {
		t.Fatalf("dropped = %d (rank) / %d (recorder), want %d", r.Dropped(), rec.Dropped(), over)
	}
	if w := BuildWire(NewID(), "p", time.Millisecond, nil, rec); !w.Truncated {
		t.Fatal("wire built from a recorder that dropped spans is not flagged truncated")
	}
	rec.Reset()
	if rec.Dropped() != 0 || len(r.Spans()) != 0 {
		t.Fatal("Reset must clear the spans and the dropped count")
	}
	if w := BuildWire(NewID(), "p", time.Millisecond, nil, rec); w.Truncated {
		t.Fatal("wire from a fresh recorder is flagged truncated")
	}
	var nilRank *Rank
	var nilRec *Recorder
	if nilRank.Dropped() != 0 || nilRec.Dropped() != 0 {
		t.Fatal("nil recorder reports dropped spans")
	}
}

// TestSiblingAttemptsSeparateTracks pins the hedging design rule: two
// overlapping attempts are invalid on ONE track (Perfetto renders that
// as garbage) and must be exported as separate tracks, which the wire
// format does by giving each attempt its own track.
func TestSiblingAttemptsSeparateTracks(t *testing.T) {
	primary := Span{Name: "attempt 0", Start: 0, Dur: 100 * time.Millisecond}
	hedge := Span{Name: "attempt 1", Start: 60 * time.Millisecond, Dur: 80 * time.Millisecond}
	if err := ValidateNesting([]Span{primary, hedge}); err == nil {
		t.Fatal("overlapping sibling attempts accepted on one track")
	}
	if err := ValidateNesting([]Span{primary}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateNesting([]Span{hedge}); err != nil {
		t.Fatal(err)
	}
}
