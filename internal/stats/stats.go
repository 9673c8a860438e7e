// Package stats collects the per-rank, per-stage quantities the paper's
// cost equations (1)–(8) are written in terms of: pixels delivered and
// composited, pixels scanned by encoders, run-length codes, message
// bytes, and the empty-bounding-rectangle indicator B(k). The counters
// are exact — the cost model evaluates the paper's formulas over them —
// and the maximum received message size M_max (§4) derives from them
// directly.
package stats

import (
	"fmt"
	"time"
)

// Stage holds the counters of one compositing stage on one rank.
type Stage struct {
	Stage int // 1-based compositing stage
	// Label names the stage on its trace spans: "stageK" unless the
	// schedule that ran the stage renames it (the owner-merge schedules'
	// "route" and "merge" rounds).
	Label string

	// RecvPixels counts pixels delivered to the compositing loop as a
	// dense region: A/2^k for BS, the receiving-bounding-rectangle area
	// A_rec^k for BSBR, and the owned-set size for the RLE methods.
	RecvPixels int
	// Composited counts over operations on non-blank incoming pixels
	// (A_opaque^k in Eq. 5 and 7).
	Composited int
	// Encoded counts pixels scanned by the run-length encoder (A/2^k for
	// BSLC, A_send^k for BSBRC).
	Encoded int
	// Codes counts run-length codes sent (R_code^k).
	Codes int
	// SentPixels counts payload pixels sent this stage.
	SentPixels int

	BytesSent int
	BytesRecv int
	MsgsSent  int
	MsgsRecv  int

	// RecvRectEmpty and SendRectEmpty record the B(k) indicator for the
	// bounding-rectangle methods.
	RecvRectEmpty bool
	SendRectEmpty bool
}

// Rank aggregates one rank's compositing-phase counters.
type Rank struct {
	RankID int
	Method string

	// BoundScan counts pixels scanned to find the initial bounding
	// rectangle (the T_bound term of Eq. 3 and 7).
	BoundScan int
	// Fold records the pre-stage of the non-power-of-two extension;
	// zero value when the rank count is a power of two.
	Fold   Stage
	Stages []Stage
	// Gather counts the final gather that follows compositing, labelled
	// trace.StageGather: the rank's encoded owned pixels as sent, and at
	// the root everything received and stored. It is kept out of Stages
	// so the paper's per-stage tables and M_max stay the compositing
	// phase's alone.
	Gather Stage

	// CompWall is the measured wall-clock time spent in compositing
	// computation (excluding communication waits).
	CompWall time.Duration
}

// StageAt returns a pointer to the entry for 1-based stage k, growing the
// slice as needed.
func (r *Rank) StageAt(k int) *Stage {
	if cap(r.Stages) < k {
		// Stages arrive one at a time (log2 P of them plus a gather);
		// grow once with headroom instead of once per stage.
		grown := make([]Stage, len(r.Stages), max(k, 8))
		copy(grown, r.Stages)
		r.Stages = grown
	}
	for len(r.Stages) < k {
		n := len(r.Stages) + 1
		r.Stages = append(r.Stages, Stage{Stage: n, Label: stageLabel(n)})
	}
	return &r.Stages[k-1]
}

// stageLabel is the default label of 1-based stage k. Labels for the
// stage counts any practical world produces (up to 2^32 ranks) are
// precomputed: a label is set once per stage per rank per frame, and
// formatting it was the hottest allocation site in the composite loop.
func stageLabel(k int) string {
	if k >= 1 && k <= len(stageLabels) {
		return stageLabels[k-1]
	}
	return fmt.Sprintf("stage%d", k)
}

var stageLabels = [32]string{
	"stage1", "stage2", "stage3", "stage4", "stage5", "stage6", "stage7", "stage8",
	"stage9", "stage10", "stage11", "stage12", "stage13", "stage14", "stage15", "stage16",
	"stage17", "stage18", "stage19", "stage20", "stage21", "stage22", "stage23", "stage24",
	"stage25", "stage26", "stage27", "stage28", "stage29", "stage30", "stage31", "stage32",
}

// BytesReceived returns the rank's total received payload bytes — the
// m_i of the paper's M_max definition. The fold pre-stage, when present,
// counts like any other stage.
func (r *Rank) BytesReceived() int {
	n := r.Fold.BytesRecv
	for _, s := range r.Stages {
		n += s.BytesRecv
	}
	return n
}

// TotalComposited sums over operations across stages.
func (r *Rank) TotalComposited() int {
	n := 0
	for _, s := range r.Stages {
		n += s.Composited
	}
	return n
}

// EmptyRecvRects counts stages whose receiving bounding rectangle was
// empty — the quantity the paper's §3.2 analyzes against rotation.
func (r *Rank) EmptyRecvRects() int {
	n := 0
	for _, s := range r.Stages {
		if s.RecvRectEmpty {
			n++
		}
	}
	return n
}

// MaxMessageBytes returns M_max = max_i m_i over a world of ranks.
func MaxMessageBytes(ranks []*Rank) int {
	max := 0
	for _, r := range ranks {
		if m := r.BytesReceived(); m > max {
			max = m
		}
	}
	return max
}

// MaxCompWall returns the slowest rank's measured compositing compute
// time — the completion-time bound the tables report.
func MaxCompWall(ranks []*Rank) time.Duration {
	var max time.Duration
	for _, r := range ranks {
		if r.CompWall > max {
			max = r.CompWall
		}
	}
	return max
}

// Timer measures exclusive compute time across scattered sections.
type Timer struct {
	total time.Duration
	mark  time.Time
}

// Start begins a timed section.
func (t *Timer) Start() { t.mark = time.Now() }

// Stop ends the current section and accumulates it.
func (t *Timer) Stop() { t.total += time.Since(t.mark) }

// Total returns the accumulated time.
func (t *Timer) Total() time.Duration { return t.total }
