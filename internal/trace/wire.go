package trace

import (
	"fmt"
	"io"
	"time"
)

// The wire trace is the cross-process span-tree format: what a replica
// returns in its reply header when a request is sampled, what the
// gateway assembles from its own spans plus every attempt's returned
// tree, and what /debug/flight exports as Perfetto JSON. It is a list
// of processes, each a list of named tracks, each a list of spans with
// microsecond offsets from the process's own epoch; a process-level
// OffsetUS places the process on the merged timeline (zero for the
// process that assembled the trace, a clock-alignment estimate for
// everyone nested under it).

// MaxWireSpans caps the spans one wire trace carries. Reply headers are
// read under the protocol's 64 KiB request-frame limit, so the span
// tree must stay well inside it; a P=8 frame records ~200 spans, so the
// cap only bites on deep worlds, and Truncated says so.
const MaxWireSpans = 768

// WireSpan is one span, microseconds from its process's epoch.
type WireSpan struct {
	Name    string  `json:"n"`
	Stage   string  `json:"g,omitempty"`
	StartUS float64 `json:"s"`
	DurUS   float64 `json:"d"`
}

// WireTrack is one timeline of non-overlapping-or-nested spans (one
// rank, one dispatch attempt, one server's request view).
type WireTrack struct {
	Name  string     `json:"name"`
	Spans []WireSpan `json:"spans"`
}

// WireProc is one process's tracks. OffsetUS shifts the whole process
// onto the assembling process's timeline.
type WireProc struct {
	Name     string      `json:"name"`
	OffsetUS float64     `json:"offset_us,omitempty"`
	Tracks   []WireTrack `json:"tracks"`
}

// Clone deep-copies the process: fresh Tracks and Spans arrays, so the
// copy can be renamed, offset, and Truncated without mutating the
// source. Assemblers that merge retained child trees into a new Wire
// (the gateway) must clone — the same child is merged again on a later
// flight export, and Truncate rewrites slices in place.
func (p WireProc) Clone() WireProc {
	out := p
	out.Tracks = make([]WireTrack, len(p.Tracks))
	for i, tr := range p.Tracks {
		tr.Spans = append([]WireSpan(nil), tr.Spans...)
		out.Tracks[i] = tr
	}
	return out
}

// Wire is one request's (partial or merged) trace.
type Wire struct {
	TraceID string `json:"trace_id"`
	// TotalUS is the assembling process's wall time for the request —
	// the quantity the next tier up combines with its measured RTT to
	// estimate the clock offset (see MidpointOffset).
	TotalUS   float64    `json:"total_us"`
	Truncated bool       `json:"truncated,omitempty"`
	Procs     []WireProc `json:"procs"`
}

// Total returns TotalUS as a duration.
func (w *Wire) Total() time.Duration {
	return time.Duration(w.TotalUS * float64(time.Microsecond))
}

// SpanCount sums the spans across all processes and tracks.
func (w *Wire) SpanCount() int {
	n := 0
	for _, p := range w.Procs {
		for _, tr := range p.Tracks {
			n += len(tr.Spans)
		}
	}
	return n
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// toWireSpans converts recorder spans to their wire form.
func toWireSpans(spans []Span) []WireSpan {
	out := make([]WireSpan, len(spans))
	for i, s := range spans {
		out[i] = WireSpan{Name: s.Name, Stage: s.Stage, StartUS: us(s.Start), DurUS: us(s.Dur)}
	}
	return out
}

// Wire is the recorder as a one-process wire trace named proc, one
// track per rank that recorded anything, every span kept: the form the
// CLIs' -trace files and /debug/trace/last export, where no reply-header
// limit applies and a P=64 run must not lose its deepest ranks.
// Truncated is set only when the recorder itself dropped spans at
// MaxRankSpans. A nil recorder yields a process with no tracks.
func (rec *Recorder) Wire(proc string) *Wire {
	w := &Wire{TraceID: rec.TraceID().String(), Truncated: rec.Dropped() > 0}
	p := WireProc{Name: proc}
	for i, spans := range rec.Snapshot() {
		if len(spans) > 0 {
			p.Tracks = append(p.Tracks, WireTrack{Name: fmt.Sprintf("rank %d", i), Spans: toWireSpans(spans)})
		}
	}
	w.Procs = []WireProc{p}
	return w
}

// BuildWire flattens one process's view of a request into the trace a
// reply header carries: an optional process-level track (queue/serve
// spans the server derives from its own timestamps) followed by rec's
// rank tracks. rec may be nil (tracing disabled server-side); the
// process track alone still tells the caller where queue time went. The
// result is capped at MaxWireSpans.
func BuildWire(traceID ID, proc string, total time.Duration, procTrack []Span, rec *Recorder) *Wire {
	w := rec.Wire(proc)
	w.TraceID, w.TotalUS = traceID.String(), us(total)
	if len(procTrack) > 0 {
		p := &w.Procs[0]
		p.Tracks = append([]WireTrack{{Name: "server", Spans: toWireSpans(procTrack)}}, p.Tracks...)
	}
	w.Truncate(MaxWireSpans)
	return w
}

// Truncate drops spans past the cap in document order (process-level
// tracks come first, so the umbrella spans survive and the deepest rank
// detail goes), and flags the trace as truncated. It rewrites the
// Tracks/Spans slice headers in place, so the Wire must own them —
// merge retained child procs with Clone before calling.
func (w *Wire) Truncate(max int) {
	left := max
	for pi := range w.Procs {
		p := &w.Procs[pi]
		for ti := range p.Tracks {
			tr := &p.Tracks[ti]
			if len(tr.Spans) <= left {
				left -= len(tr.Spans)
				continue
			}
			tr.Spans = tr.Spans[:left]
			left = 0
			w.Truncated = true
		}
	}
	if w.Truncated {
		for pi := range w.Procs {
			p := &w.Procs[pi]
			// Compact into a fresh slice: filtering through p.Tracks[:0]
			// would scribble over a backing array the source tree may
			// still share.
			kept := make([]WireTrack, 0, len(p.Tracks))
			for _, tr := range p.Tracks {
				if len(tr.Spans) > 0 {
					kept = append(kept, tr)
				}
			}
			p.Tracks = kept
		}
	}
}

// MidpointOffset estimates where a remote process's epoch falls on the
// local timeline. The dispatch left at start (local clock), the reply
// arrived rtt later, and the remote reports total wall time handling
// it; assuming symmetric transit (the NTP midpoint assumption), the
// remote window sits centered in the slack. Negative slack — the remote
// claims more wall time than the round trip, i.e. clock drift larger
// than the transit — clamps to zero so spans never escape their parent
// window leftwards.
func MidpointOffset(start, rtt, total time.Duration) time.Duration {
	slack := rtt - total
	if slack < 0 {
		slack = 0
	}
	return start + slack/2
}

// events flattens the wire trace into Chrome trace events: one pid per
// process, one tid per track, timestamps shifted by the process offset.
func (w *Wire) events() []Event {
	var events []Event
	for pi, p := range w.Procs {
		events = append(events, Event{
			Name: "process_name", Ph: "M", PID: pi, TID: 0,
			Args: map[string]any{"name": p.Name},
		})
		for ti, tr := range p.Tracks {
			events = append(events, Event{
				Name: "thread_name", Ph: "M", PID: pi, TID: ti,
				Args: map[string]any{"name": tr.Name},
			})
			for _, s := range tr.Spans {
				ev := Event{
					Name: s.Name, Ph: "X",
					TS: p.OffsetUS + s.StartUS, Dur: s.DurUS,
					PID: pi, TID: ti,
				}
				if s.Stage != "" {
					ev.Args = map[string]any{"stage": s.Stage}
				}
				events = append(events, ev)
			}
		}
	}
	return events
}

// WritePerfetto writes the wire trace as Chrome/Perfetto trace-event
// JSON, the trace ID carried as a top-level field.
func (w *Wire) WritePerfetto(dst io.Writer) error {
	return writeTraceFile(dst, File{TraceID: w.TraceID, TraceEvents: w.events(), DisplayTimeUnit: "ms"})
}
