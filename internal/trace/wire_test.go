package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func recWithSpans(t testing.TB, p, perRank int) *Recorder {
	t.Helper()
	rec := NewRecorder(p)
	for i := 0; i < p; i++ {
		r := rec.Rank(i)
		for j := 0; j < perRank; j++ {
			r.End(r.Begin(), SpanComposite, "stage1")
		}
	}
	return rec
}

func TestBuildWireShape(t *testing.T) {
	id := NewID()
	rec := recWithSpans(t, 3, 2)
	procTrack := []Span{
		{Name: "serve", Start: 0, Dur: 10 * time.Millisecond},
		{Name: "queue", Start: 0, Dur: 2 * time.Millisecond},
	}
	w := BuildWire(id, "renderd", 10*time.Millisecond, procTrack, rec)
	if w.TraceID != id.String() {
		t.Fatalf("trace id %q, want %q", w.TraceID, id)
	}
	if w.Total() != 10*time.Millisecond {
		t.Fatalf("total %v", w.Total())
	}
	if len(w.Procs) != 1 || w.Procs[0].Name != "renderd" {
		t.Fatalf("procs = %+v", w.Procs)
	}
	tracks := w.Procs[0].Tracks
	if len(tracks) != 4 { // server + 3 ranks
		t.Fatalf("tracks = %d, want 4", len(tracks))
	}
	if tracks[0].Name != "server" || len(tracks[0].Spans) != 2 {
		t.Fatalf("server track = %+v", tracks[0])
	}
	if tracks[1].Name != "rank 0" || len(tracks[1].Spans) != 2 {
		t.Fatalf("rank track = %+v", tracks[1])
	}
	if w.SpanCount() != 8 {
		t.Fatalf("span count = %d, want 8", w.SpanCount())
	}
	if w.Truncated {
		t.Fatal("small wire marked truncated")
	}

	// Empty ranks are skipped; nil recorder still yields the proc track.
	w2 := BuildWire(id, "renderd", time.Millisecond, procTrack, nil)
	if len(w2.Procs[0].Tracks) != 1 {
		t.Fatalf("nil-recorder tracks = %+v", w2.Procs[0].Tracks)
	}
}

func TestWireTruncate(t *testing.T) {
	id := NewID()
	rec := recWithSpans(t, 8, 200) // 1600 spans > MaxWireSpans
	w := BuildWire(id, "renderd", time.Second, []Span{{Name: "serve", Dur: time.Second}}, rec)
	if !w.Truncated {
		t.Fatal("oversized wire not flagged truncated")
	}
	if got := w.SpanCount(); got != MaxWireSpans {
		t.Fatalf("span count after truncate = %d, want %d", got, MaxWireSpans)
	}
	// The process-level track must survive the cut (document order).
	if w.Procs[0].Tracks[0].Name != "server" {
		t.Fatalf("first surviving track = %q", w.Procs[0].Tracks[0].Name)
	}
	// Truncated wires must stay well inside the 64 KiB reply-header
	// budget shared with the rest of the response JSON.
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 56<<10 {
		t.Fatalf("truncated wire marshals to %d bytes, want <= %d", len(b), 56<<10)
	}

	// The cap belongs to the reply header, not to the recorder → Wire
	// conversion: the form the CLIs' -trace files and /debug/trace/last
	// export keeps every span of every rank.
	full := rec.Wire("sortlast")
	if full.Truncated || full.SpanCount() != 1600 || len(full.Procs[0].Tracks) != 8 {
		t.Fatalf("Recorder.Wire: truncated=%v spans=%d tracks=%d, want all 1600 spans on 8 rank tracks",
			full.Truncated, full.SpanCount(), len(full.Procs[0].Tracks))
	}
}

func TestMidpointOffset(t *testing.T) {
	// 10ms round trip, server worked 6ms: 4ms slack, server epoch sits
	// 2ms after dispatch.
	if got := MidpointOffset(100*time.Millisecond, 10*time.Millisecond, 6*time.Millisecond); got != 102*time.Millisecond {
		t.Fatalf("offset = %v, want 102ms", got)
	}
	// Server claims more wall time than the RTT (clock skew): clamp so
	// the child never starts before its parent.
	if got := MidpointOffset(100*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("clamped offset = %v, want 100ms", got)
	}
}

func TestWirePerfettoExport(t *testing.T) {
	id := NewID()
	rec := recWithSpans(t, 2, 1)
	// A gateway's merge: its own dispatch span, and the replica's tree
	// shifted to the midpoint of the 9 ms round trip.
	child := BuildWire(id, "replica 0", 5*time.Millisecond, nil, rec)
	replica := child.Procs[0]
	replica.OffsetUS = us(MidpointOffset(0, 9*time.Millisecond, child.Total()))
	w := &Wire{TraceID: id.String(), TotalUS: 9000, Procs: []WireProc{
		{Name: "gateway", Tracks: []WireTrack{{Name: "request", Spans: []WireSpan{{Name: "dispatch", DurUS: 9000}}}}},
		replica,
	}}

	var buf bytes.Buffer
	if err := w.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.TraceID != id.String() {
		t.Fatalf("file trace id = %q, want %q", f.TraceID, id)
	}
	pids := map[int]bool{}
	procNames := map[string]bool{}
	var complete int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procNames[ev.Args["name"].(string)] = true
			}
		case "X":
			complete++
			pids[ev.PID] = true
			if ev.TS < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if !procNames["gateway"] || !procNames["replica 0"] {
		t.Fatalf("process names = %v", procNames)
	}
	if len(pids) != 2 {
		t.Fatalf("distinct pids = %d, want 2", len(pids))
	}
	if complete != 3 { // 1 gateway span + 2 rank spans
		t.Fatalf("complete events = %d, want 3", complete)
	}
	// Child spans must land inside the parent window after offsetting.
	off := w.Procs[1].OffsetUS
	for _, tr := range w.Procs[1].Tracks {
		for _, s := range tr.Spans {
			if off+s.StartUS < 0 || off+s.StartUS+s.DurUS > 9000+1 {
				t.Fatalf("child span escapes parent window: off=%v span=%+v", off, s)
			}
		}
	}
}
