package trace

import (
	"encoding/json"
	"io"
	"testing"
	"time"
)

// FuzzWireDecodeTruncate feeds arbitrary bytes to the path a span tree
// takes after crossing a socket: JSON-decoded into a Wire (a replica's
// reply header at the gateway, the gateway's at the client), counted,
// capped with Truncate, nested under a caller span and exported. None
// of it may panic, Truncate must honor its cap and leave no empty
// track behind, and a tree the exporter accepted must still be
// accepted after truncation.
func FuzzWireDecodeTruncate(f *testing.F) {
	real, err := json.Marshal(BuildWire(NewID(), "renderd", 10*time.Millisecond,
		[]Span{{Name: "serve", Dur: 10 * time.Millisecond}, {Name: "queue", Dur: 2 * time.Millisecond}},
		recWithSpans(f, 3, 4)))
	if err != nil {
		f.Fatal(err)
	}
	long := Wire{Procs: []WireProc{{Name: "deep", Tracks: []WireTrack{{Name: "rank 0", Spans: make([]WireSpan, 10000)}}}}}
	big, err := json.Marshal(long)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(big)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"total_us":-5,"procs":[{"name":"p","offset_us":-1e300,"tracks":[{"name":"t","spans":[{"n":"a","s":-3,"d":-7},{"n":"b","s":1e308,"d":1e308}]},{"name":"empty","spans":[]},{"name":"null","spans":null}]},{"name":"q","tracks":null}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var w Wire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		n := w.SpanCount()
		_ = w.Total()
		exportErr := w.WritePerfetto(io.Discard) // e.g. offset+start overflowing to +Inf

		for _, max := range []int{MaxWireSpans, 1, 0} {
			c := w
			c.Procs = make([]WireProc, len(w.Procs))
			for i, p := range w.Procs {
				c.Procs[i] = p.Clone() // Truncate rewrites in place
			}
			c.Truncate(max)
			got := c.SpanCount()
			if got > max || got > n {
				t.Fatalf("Truncate(%d) left %d of %d spans", max, got, n)
			}
			if n > max && (!c.Truncated || got != max) {
				t.Fatalf("Truncate(%d) of %d spans: kept %d, truncated=%v", max, n, got, c.Truncated)
			}
			if c.Truncated {
				for _, p := range c.Procs {
					for _, tr := range p.Tracks {
						if len(tr.Spans) == 0 {
							t.Fatalf("Truncate(%d) left the empty track %q", max, tr.Name)
						}
					}
				}
			}
			if exportErr == nil {
				if err := c.WritePerfetto(io.Discard); err != nil {
					t.Fatalf("exporter rejects the tree after Truncate(%d): %v", max, err)
				}
			}
			nested := Nest("client", "request", "wait", time.Millisecond, &c)
			if nested.SpanCount() != got+1 || nested.Truncated != c.Truncated {
				t.Fatalf("Nest: %d spans truncated=%v over a child of %d truncated=%v",
					nested.SpanCount(), nested.Truncated, got, c.Truncated)
			}
			_ = nested.WritePerfetto(io.Discard)
		}
		if w.SpanCount() != n {
			t.Fatalf("truncating clones changed the source: %d spans, was %d", w.SpanCount(), n)
		}
	})
}
