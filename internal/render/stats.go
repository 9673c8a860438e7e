package render

import "sync/atomic"

// Stats accumulates the ray caster's work and empty-space-skipping
// counters across however many Raycast calls share one instance. The
// fields are atomics so concurrent tile workers — and the serving
// tier's long-lived per-server instance — can share it; workers
// accumulate into a plain-integer StatsSnapshot and flush once on exit,
// so the atomics stay cold.
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

// StatsSnapshot is a point-in-time copy of Stats, and a tile worker's
// uncontended accumulator.
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

// flush adds a worker's accumulator t into s (nil: collect nothing)
// and zeroes t.
func (s *Stats) flush(t *StatsSnapshot) {
	if s == nil || *t == (StatsSnapshot{}) {
		return
	}
	s.Rays.Add(t.Rays)
	s.Samples.Add(t.Samples)
	s.SamplesSkipped.Add(t.SamplesSkipped)
	s.CellsVisited.Add(t.CellsVisited)
	s.CellsSkipped.Add(t.CellsSkipped)
	*t = StatsSnapshot{}
}
