// Package costmodel evaluates the paper's cost equations (1)–(8) over
// the exactly counted quantities of a run. Absolute times on a 2026 CPU
// cannot reproduce a 66.7 MHz POWER2 with an HPS interconnect, so the
// tables are regenerated the way the paper models them: per-message
// start-up Ts, per-byte transfer Tc, per-pixel over To, per-pixel encode
// T_encode, and per-pixel bounding scan T_bound, with the SP2 preset
// fitted to Table 1. Counters are exact (pixels, codes, bytes, stages),
// so the shape of the results — who wins, by what factor, where
// crossovers fall — comes from the algorithms, not the host machine.
package costmodel

import (
	"fmt"
	"strings"
	"time"

	"sortlast/internal/stats"
)

// Params are the machine constants of the paper's model.
type Params struct {
	Ts      time.Duration // start-up time per message
	Tc      time.Duration // transmission time per byte
	To      time.Duration // "over" operation per pixel
	Tencode time.Duration // run-length encoding per pixel
	Tbound  time.Duration // bounding-rectangle scan per pixel
}

// SP2 returns parameters fitted to the paper's IBM SP2 measurements
// (Table 1): ~40 MB/s HPS bandwidth, tens of microseconds of message
// latency, and a ~4 µs per-pixel over on the 66.7 MHz POWER2.
func SP2() Params {
	return Params{
		Ts:      60 * time.Microsecond,
		Tc:      25 * time.Nanosecond,
		To:      4 * time.Microsecond,
		Tencode: 500 * time.Nanosecond,
		Tbound:  150 * time.Nanosecond,
	}
}

// Cost is a modeled compositing cost, split as the paper splits it.
type Cost struct {
	Comp time.Duration
	Comm time.Duration
}

// Total returns T_total = T_comp + T_comm.
func (c Cost) Total() time.Duration { return c.Comp + c.Comm }

// rank evaluates the model for one rank's counters. The computation
// formula follows the rank's method:
//
//	BS    (Eq. 1): To·Σ A/2^k                 — every received pixel
//	BSBR  (Eq. 3): T_bound·A + To·Σ A_rec^k   — received-rectangle pixels
//	BSLC  (Eq. 5): Σ (T_enc·A/2^k + To·A_op)  — encode scans + non-blanks
//	BSBRC (Eq. 7): T_bound·A + Σ (T_enc·A_send + To·A_op)
//
// A folded method ("BS+fold") follows its inner method's rule on the
// swap stages; its fold pre-stage, always rectRLE, and the baselines use
// the generic form T_bound·scan + T_enc·encoded + To·composited.
// Communication (Eq. 2/4/6/8) is Σ (Ts + bytes·Tc) over received
// messages, the fold pre-stage included.
func (p Params) rank(r *stats.Rank) Cost {
	var c Cost
	c.Comp += time.Duration(r.BoundScan) * p.Tbound
	c.Comp += p.stageComp("", &r.Fold)
	c.Comm += p.stageComm(&r.Fold)
	for i := range r.Stages {
		c.Comp += p.stageComp(r.Method, &r.Stages[i])
		c.Comm += p.stageComm(&r.Stages[i])
	}
	return c
}

func (p Params) stageComp(method string, s *stats.Stage) time.Duration {
	var d time.Duration
	d += time.Duration(s.Encoded) * p.Tencode
	switch strings.TrimSuffix(method, "+fold") {
	case "BS", "BSBR":
		// The paper charges the over cost for every delivered pixel,
		// blanks included (the receiving half or rectangle is dense).
		d += time.Duration(s.RecvPixels) * p.To
	default:
		d += time.Duration(s.Composited) * p.To
	}
	return d
}

func (p Params) stageComm(s *stats.Stage) time.Duration {
	var d time.Duration
	if s.MsgsRecv > 0 {
		d += time.Duration(s.MsgsRecv) * p.Ts
		d += time.Duration(s.BytesRecv) * p.Tc
	}
	return d
}

// World evaluates the model across all ranks and returns the paper's
// per-table quantities: the slowest rank's T_comp, T_comm (the completion
// bound), and their sum.
func (p Params) World(ranks []*stats.Rank) Cost {
	var w Cost
	for _, r := range ranks {
		if r == nil {
			continue
		}
		c := p.rank(r)
		if c.Comp > w.Comp {
			w.Comp = c.Comp
		}
		if c.Comm > w.Comm {
			w.Comm = c.Comm
		}
	}
	return w
}

// String implements fmt.Stringer.
func (c Cost) String() string {
	return fmt.Sprintf("comp=%.2fms comm=%.2fms total=%.2fms",
		float64(c.Comp)/1e6, float64(c.Comm)/1e6, float64(c.Total())/1e6)
}
