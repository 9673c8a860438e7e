package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Event is one Chrome trace-event object. (*Wire).Events emits complete
// events (ph "X", microsecond ts/dur) plus metadata events (ph "M")
// naming each process and one thread per track, which is exactly the
// subset ui.perfetto.dev needs to show one aligned track per rank.
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// File is the JSON-object form of the trace-event format. TraceID is
// an extension field (Perfetto ignores unknown top-level keys) naming
// the distributed trace the events belong to.
type File struct {
	TraceID         string  `json:"traceId,omitempty"`
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// writeTraceFile encodes one trace-event file as JSON.
func writeTraceFile(w io.Writer, f File) error {
	return json.NewEncoder(w).Encode(f)
}

// ValidateNesting checks that one rank's spans form a proper tree:
// any two spans either don't overlap or one contains the other.
// Perfetto renders overlapping non-nested slices on one track as
// garbage, so the instrumentation tests gate on this.
func ValidateNesting(spans []Span) error {
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End() > sorted[j].End()
	})
	// Walk with an open-span stack: each span must either start after
	// the innermost open span ends (sibling) or end within it (child).
	var stack []Span
	for _, s := range sorted {
		for len(stack) > 0 && stack[len(stack)-1].End() <= s.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && s.End() > stack[len(stack)-1].End() {
			p := stack[len(stack)-1]
			return fmt.Errorf("span %q [%v,%v] overlaps %q [%v,%v] without nesting",
				s.Name, s.Start, s.End(), p.Name, p.Start, p.End())
		}
		stack = append(stack, s)
	}
	return nil
}
