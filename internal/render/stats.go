package render

import "sync/atomic"

// Stats accumulates the ray caster's work and empty-space-skipping
// counters across however many Raycast calls share one instance. The
// fields are atomics so concurrent tile workers — and the serving
// tier's long-lived per-server instance — can share it; workers
// accumulate into a plain-integer tileStats and flush once on exit, so
// the atomics stay cold.
type Stats struct {
	Rays           atomic.Int64 // rays whose sample interval intersected the box
	Samples        atomic.Int64 // sample points evaluated (sampled + classified)
	SamplesSkipped atomic.Int64 // sample points skipped by macro-cell classification
	CellsVisited   atomic.Int64 // macro cells stepped over by the 3D-DDA
	CellsSkipped   atomic.Int64 // visited cells whose value range classified to zero opacity
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Rays:           s.Rays.Load(),
		Samples:        s.Samples.Load(),
		SamplesSkipped: s.SamplesSkipped.Load(),
		CellsVisited:   s.CellsVisited.Load(),
		CellsSkipped:   s.CellsSkipped.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Rays, Samples, SamplesSkipped, CellsVisited, CellsSkipped int64
}

// SkipFraction returns the share of candidate samples the macro-cell
// grid skipped.
func (s StatsSnapshot) SkipFraction() float64 {
	total := s.Samples + s.SamplesSkipped
	if total == 0 {
		return 0
	}
	return float64(s.SamplesSkipped) / float64(total)
}

// tileStats is the per-worker, uncontended accumulator behind Stats.
type tileStats struct {
	rays, samples, samplesSkipped, cellsVisited, cellsSkipped int64
}

func (t *tileStats) flush(s *Stats) {
	if s == nil || *t == (tileStats{}) {
		return
	}
	s.Rays.Add(t.rays)
	s.Samples.Add(t.samples)
	s.SamplesSkipped.Add(t.samplesSkipped)
	s.CellsVisited.Add(t.cellsVisited)
	s.CellsSkipped.Add(t.cellsSkipped)
	*t = tileStats{}
}
