package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call — the program under test is not instrumented here. Names are
// "<layer>.<operation>"; the layer is a module name.
type span struct {
	Name       string
	Start, End int64 // ns since the recorder's epoch
	Parent     int   // index of the causing span, -1 for a frame root
	Frame      int
	// Rank is the rank track the span ran on, -1 for the caller. Rank 0
	// is the root that receives the gathered frame, so the caller and
	// rank 0 together form the path a frame blocks on; other ranks are
	// recorded for the picture but not charged to the frame.
	Rank int
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced and traced loops share their code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, frame, rank int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Frame: frame, Rank: rank})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval is known after the fact (a duration
// reported by the server in FrameStats), placed at offset ns after the
// start of its parent.
func (r *recorder) add(name string, parent int, offset, dur int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	p := r.spans[parent]
	r.spans = append(r.spans, span{Name: name, Start: p.Start + offset, End: p.Start + offset + dur,
		Parent: parent, Frame: p.Frame, Rank: p.Rank})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// blockingPath returns a copy of spans in which rank 0's track carries
// the path a frame blocks on. The ranks of a world run the same sequence
// of calls under one parent, and a phase is over when its slowest rank
// is done — rank 0 then sits waiting inside its next call. So rank 0's
// i-th span under a parent is stretched to end when the slowest rank's
// i-th span ends, and the next starts there (the first starts with the
// earliest rank: with more ranks than processors rank 0 may be the last
// to be scheduled). The wait is charged to the phase that caused it, not
// to the call rank 0 happened to wait in.
func blockingPath(spans []span) []span {
	out := append([]span(nil), spans...)
	type key struct{ parent, rank int }
	seq := make(map[key][]int) // spans of one rank under one parent, in call order
	ranks := make(map[int]int) // parent → highest rank seen
	for i, s := range spans {
		if s.Parent >= 0 && s.Rank >= 0 {
			seq[key{s.Parent, s.Rank}] = append(seq[key{s.Parent, s.Rank}], i)
			ranks[s.Parent] = max(ranks[s.Parent], s.Rank)
		}
	}
	for parent, top := range ranks {
		root := seq[key{parent, 0}]
		edge := int64(0)
		for i, id := range root {
			end := out[id].End
			for r := 1; r <= top; r++ {
				if other := seq[key{parent, r}]; i < len(other) {
					end = max(end, spans[other[i]].End)
					if i == 0 {
						out[id].Start = min(out[id].Start, spans[other[i]].Start)
					}
				}
			}
			if i > 0 {
				out[id].Start = edge
			}
			out[id].End = max(end, out[id].Start)
			edge = out[id].End
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of it that
// its children on the blocking path (caller and rank 0) cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Rank <= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerBudget sums self time per layer over the blocking path and
// returns each layer's share of the total frame time, plus the per-frame
// time the root spans could not attribute to any child.
func layerBudget(spans []span) (share map[string]float64, unattributedNS []float64) {
	spans = blockingPath(spans)
	self := selfTimes(spans)
	byLayer := make(map[string]int64)
	var total int64
	for i, s := range spans {
		if s.Rank > 0 {
			continue
		}
		if s.Parent < 0 {
			total += s.dur()
			unattributedNS = append(unattributedNS, float64(self[i]))
		}
		byLayer[s.layer()] += self[i]
	}
	share = make(map[string]float64)
	if total > 0 {
		for l, ns := range byLayer {
			share[l] = float64(ns) / float64(total)
		}
	}
	return share, unattributedNS
}

// writeTrace stores the spans as Chrome trace events (open the file at
// ui.perfetto.dev): one track per rank, the caller on track 0.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Rank + 1,
			Args: map[string]int{"frame": s.Frame, "parent": s.Parent, "rank": s.Rank}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
