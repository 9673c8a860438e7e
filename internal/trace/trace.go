// Package trace is a low-overhead wall-clock span recorder for the
// sort-last pipeline. Where internal/stats counts the paper's exact
// quantities (pixels, codes, bytes) and internal/costmodel turns them
// into *modeled* SP2 times, this package records where wall-clock time
// *actually* goes on the host: one append-only span buffer per rank,
// monotonic timestamps against a shared epoch, and static span names so
// recording a span never formats or allocates.
//
// Tracing is opt-in per run. Every method is a no-op on a nil *Rank or
// nil *Recorder, so instrumented code calls Begin/End unconditionally
// and a tracing-disabled run pays two nil checks per span — no clock
// reads, no locks, no allocations (asserted in tests). When enabled,
// appends reuse buffer capacity across frames (Reset keeps storage), so
// steady-state recording allocates nothing either; each rank's buffer
// takes a private uncontended mutex per span so exporters can snapshot
// a live recorder safely (the serving tier reads the last frame's trace
// while the next frame records).
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Canonical span names. Static strings: recording them copies a string
// header, never formats. Per-stage spans reuse the compositors' stage
// labels ("stage1", "stage2", ...) as both name and Stage attribute.
const (
	// SpanRender is one rank's whole rendering phase.
	SpanRender = "render"
	// SpanRaycast is the ray-casting inner loop (child of SpanRender).
	SpanRaycast = "raycast"
	// SpanGridBuild is the ray caster's kernel setup — transfer-derived
	// tables plus the once-per-volume macro-cell grid build (child of
	// SpanRaycast; near-zero once the volume's grid is cached).
	SpanGridBuild = "grid-build"
	// SpanCompositing is one rank's whole compositing phase.
	SpanCompositing = "compositing"
	// SpanGather is the final-image gather at rank 0.
	SpanGather = "gather"
	// SpanBound is the initial bounding-rectangle scan (BSBR/BSBRC).
	SpanBound = "bound"
	// SpanEncode is a stage's payload build: bounding-rectangle pack
	// and/or run-length encode.
	SpanEncode = "encode"
	// SpanComposite is a stage's over-compositing of received pixels.
	SpanComposite = "composite"
	// SpanSendWait is time spent inside the comm layer's Send (buffered
	// copy in-process; syscall wait over TCP).
	SpanSendWait = "send-wait"
	// SpanRecvWait is time blocked in the comm layer's Recv waiting for
	// the partner's message.
	SpanRecvWait = "recv-wait"
)

// StageGather labels comm spans issued during the final gather.
const StageGather = "gather"

// StageRoute and StageMerge label the two rounds of internal/core's
// owner-merge schedule: route is the encode-and-send fan-out to the
// strip/tile owners, merge is the owner's depth-ordered compositing of
// the received contributions.
const (
	StageRoute = "route"
	StageMerge = "merge"
)

// Span is one timed interval on one rank's track. Start is the offset
// from the recorder's epoch, so spans from different ranks align.
type Span struct {
	Name  string
	Stage string // compositing stage label, "" outside stages
	Start time.Duration
	Dur   time.Duration
}

// End returns the span's end offset.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Mark is an opaque begin timestamp returned by Rank.Begin.
type Mark time.Duration

// Rank is one rank's span buffer. A nil *Rank is the disabled recorder:
// every method is a no-op. The buffer has a single writer (the rank's
// goroutine); the mutex exists so exporters can snapshot concurrently.
type Rank struct {
	id    int
	epoch time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int // spans End discarded at MaxRankSpans since the last reset
}

// ID returns the rank number.
func (r *Rank) ID() int {
	if r == nil {
		return -1
	}
	return r.id
}

// Begin starts a span and returns its mark. On a nil Rank it returns 0
// without reading the clock.
func (r *Rank) Begin() Mark {
	if r == nil {
		return 0
	}
	return Mark(time.Since(r.epoch))
}

// End records the span opened at m under a static name and stage label.
func (r *Rank) End(m Mark, name, stage string) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	if len(r.spans) < MaxRankSpans {
		r.spans = append(r.spans, Span{Name: name, Stage: stage, Start: time.Duration(m), Dur: now - time.Duration(m)})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans, in end order (children
// before the spans that contain them).
func (r *Rank) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Total sums the durations of spans with the given name.
func (r *Rank) Total(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for i := range r.spans {
		if r.spans[i].Name == name {
			d += r.spans[i].Dur
		}
	}
	return d
}

// Dropped returns the number of spans discarded at MaxRankSpans.
func (r *Rank) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// reset truncates the buffer, keeping its storage.
func (r *Rank) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// spansPerRankHint sizes a rank's initial buffer: a deep world frame
// records a handful of spans per binary-swap stage plus the phase and
// gather spans; 256 covers P=64 runs without growing.
const spansPerRankHint = 256

// MaxRankSpans caps one rank's buffer between resets. A frame records a
// few hundred spans per rank (P=64 stays under spansPerRankHint), so the
// cap only bites on a recorder that is never reset; it bounds that
// recorder's memory at ~3 MiB per rank instead of letting a runaway
// writer grow the slice until the host OOMs. Spans past the cap are
// counted in Dropped, never silently lost.
const MaxRankSpans = 1 << 16

// Recorder holds the span buffers of one world, one track per rank,
// sharing a single epoch so the tracks align. A nil *Recorder is the
// disabled recorder: Rank returns nil and exports are empty.
type Recorder struct {
	epoch   time.Time
	ranks   []*Rank
	traceID atomic.Uint64
}

// SetTraceID tags the recorder with the distributed trace it records
// for. One plain store outside the rank span path: Begin/End never
// touch it, so the zero-alloc pin is unaffected.
func (rec *Recorder) SetTraceID(id ID) {
	if rec == nil {
		return
	}
	rec.traceID.Store(uint64(id))
}

// TraceID returns the recorder's trace identity, zero when untagged.
func (rec *Recorder) TraceID() ID {
	if rec == nil {
		return 0
	}
	return ID(rec.traceID.Load())
}

// NewRecorder creates a recorder for a world of p ranks.
func NewRecorder(p int) *Recorder {
	rec := &Recorder{epoch: time.Now(), ranks: make([]*Rank, p)}
	for i := range rec.ranks {
		rec.ranks[i] = &Rank{id: i, epoch: rec.epoch, spans: make([]Span, 0, spansPerRankHint)}
	}
	return rec
}

// Rank returns rank i's buffer, nil when the recorder is nil or i is
// out of range (both mean "tracing disabled" to the instrumented code).
func (rec *Recorder) Rank(i int) *Rank {
	if rec == nil || i < 0 || i >= len(rec.ranks) {
		return nil
	}
	return rec.ranks[i]
}

// Size returns the number of rank tracks.
func (rec *Recorder) Size() int {
	if rec == nil {
		return 0
	}
	return len(rec.ranks)
}

// Reset truncates every rank's buffer, keeping storage, so a standing
// recorder can be reused frame to frame without allocating.
func (rec *Recorder) Reset() {
	if rec == nil {
		return
	}
	rec.traceID.Store(0)
	for _, r := range rec.ranks {
		r.reset()
	}
}

// Snapshot copies every rank's spans, indexed by rank.
func (rec *Recorder) Snapshot() [][]Span {
	if rec == nil {
		return nil
	}
	out := make([][]Span, len(rec.ranks))
	for i, r := range rec.ranks {
		out[i] = r.Spans()
	}
	return out
}

// Dropped sums the spans every rank discarded at MaxRankSpans.
func (rec *Recorder) Dropped() int {
	if rec == nil {
		return 0
	}
	n := 0
	for _, r := range rec.ranks {
		n += r.Dropped()
	}
	return n
}

// MaxTotal returns the slowest rank's summed duration for one span
// name — the completion-time bound for a phase, the quantity the
// serving tier's per-phase latency histograms observe.
func (rec *Recorder) MaxTotal(name string) time.Duration {
	if rec == nil {
		return 0
	}
	var max time.Duration
	for _, r := range rec.ranks {
		if d := r.Total(name); d > max {
			max = d
		}
	}
	return max
}
