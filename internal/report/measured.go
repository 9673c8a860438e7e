package report

import (
	"fmt"
	"strings"
	"time"

	"sortlast/internal/costmodel"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// divergePoints is the share difference (in percentage points of the
// rank's total) above which a stage is flagged as diverging from the
// model. Absolute times are incomparable — the model is fitted to the
// paper's SP2, the spans to this host — but the *distribution* of time
// across stages should agree when the model captures the algorithm.
const divergePoints = 15.0

// MeasuredVsModeled renders a per-rank, per-stage comparison of the
// wall-clock span times recorded by a traced run against the paper-model
// predictions (Eq. 1–8) for the same counters. For every binary-swap
// stage it shows the measured slice durations (encode, comm wait,
// composite) beside the modeled T_comp/T_comm, plus each side's share of
// the rank total, flagging stages whose shares diverge by more than 15
// points — the stages where the SP2 model and this host disagree about
// where the time goes. The gather is the row after the last stage, with
// its own modeled term (costmodel.Params.Gather) and no share: it is not
// part of the compositing totals.
func MeasuredVsModeled(rec *trace.Recorder, ranks []*stats.Rank, params costmodel.Params) string {
	if rec == nil || rec.Size() == 0 {
		return "measured-vs-modeled: no trace recorded\n"
	}
	byID := map[int]*stats.Rank{}
	method := ""
	for _, r := range ranks {
		if r != nil {
			byID[r.RankID] = r
			method = r.Method
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "measured vs modeled (%s, P=%d; absolute times are host vs SP2 — compare shares)\n",
		method, rec.Size())
	for i := 0; i < rec.Size(); i++ {
		spans := rec.Rank(i).Spans()
		sum := func(name, stage string) time.Duration {
			var d time.Duration
			for _, s := range spans {
				if s.Name == name && s.Stage == stage {
					d += s.Dur
				}
			}
			return d
		}
		fmt.Fprintf(&sb, "rank %d: render %s  compositing %s  gather %s\n",
			i, fmtMS(sum(trace.SpanRender, "")),
			fmtMS(sum(trace.SpanCompositing, "")),
			fmtMS(sum(trace.SpanGather, trace.StageGather)))
		r := byID[i]
		if r == nil {
			continue
		}

		// Totals over the binary-swap stages only, so shares compare the
		// same quantity on both sides.
		var measTotal time.Duration
		modTotal := time.Duration(r.BoundScan) * params.Tbound
		for k := range r.Stages {
			lbl := r.Stages[k].Label
			measTotal += sum(lbl, lbl)
			modTotal += params.Stage(r.Method, &r.Stages[k]).Total()
		}
		measTotal += sum(trace.SpanBound, "")
		if measTotal == 0 || modTotal == 0 {
			continue
		}

		fmt.Fprintf(&sb, "  %-8s %10s %8s %8s %8s | %10s %10s | %6s %6s\n",
			"stage", "measured", "encode", "wait", "blend", "model_comp", "model_comm", "meas%", "model%")
		if bound := sum(trace.SpanBound, ""); bound > 0 {
			fmt.Fprintf(&sb, "  %-8s %10s %8s %8s %8s | %10s %10s | %6.1f %6.1f\n",
				"bound", fmtMS(bound), "", "", "",
				fmtMS(time.Duration(r.BoundScan)*params.Tbound), "",
				share(bound, measTotal), share(time.Duration(r.BoundScan)*params.Tbound, modTotal))
		}
		for k := range r.Stages {
			s := &r.Stages[k]
			lbl := s.Label
			meas := sum(lbl, lbl)
			model := params.Stage(r.Method, s)
			measShare := share(meas, measTotal)
			modelShare := share(model.Total(), modTotal)
			fmt.Fprintf(&sb, "  %-8s %10s %8s %8s %8s | %10s %10s | %6.1f %6.1f",
				lbl, fmtMS(meas),
				fmtMS(sum(trace.SpanEncode, lbl)),
				fmtMS(sum(trace.SpanSendWait, lbl)+sum(trace.SpanRecvWait, lbl)),
				fmtMS(sum(trace.SpanComposite, lbl)),
				fmtMS(model.Comp), fmtMS(model.Comm),
				measShare, modelShare)
			if d := measShare - modelShare; d > divergePoints || d < -divergePoints {
				fmt.Fprintf(&sb, "  << diverges %+.0f pts", d)
			}
			sb.WriteByte('\n')
		}
		// The gather follows the last compositing stage: the row the
		// paper's tables leave out. It stays outside both totals, so
		// the shares above keep comparing compositing with compositing.
		g := &r.Gather
		model := params.Gather(g)
		fmt.Fprintf(&sb, "  %-8s %10s %8s %8s %8s | %10s %10s |\n",
			trace.StageGather, fmtMS(sum(trace.SpanGather, trace.StageGather)),
			fmtMS(sum(trace.SpanEncode, trace.StageGather)),
			fmtMS(sum(trace.SpanSendWait, trace.StageGather)+sum(trace.SpanRecvWait, trace.StageGather)),
			fmtMS(sum(trace.SpanComposite, trace.StageGather)),
			fmtMS(model.Comp), fmtMS(model.Comm))
	}
	return sb.String()
}

func share(d, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

func fmtMS(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fms", float64(d)/1e6)
}
