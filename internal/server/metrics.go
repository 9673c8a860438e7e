package server

import (
	"sortlast/internal/core"
	"sortlast/internal/obs"
	"sortlast/internal/render"
	"sortlast/internal/trace"
)

// phases of a frame with per-phase latency histograms, in export order.
var phaseNames = []string{"render", "composite", "gather"}

// errorCodes pre-registers the typed reply codes, in export order.
var errorCodes = []string{CodeOverloaded, CodeBadRequest, CodeDeadline, CodeShutdown, CodeInternal, CodeWorldFailed}

// qualityNames pre-registers the delivered-quality labels, in export
// order (highest fidelity first).
var qualityNames = []string{QualityFull, QualityPreview}

// degradePaths pre-registers every (degrade path, landed-on contract)
// pair that can occur: admission steps a full request down to preview.
var degradePaths = obs.Labels{
	Keys:   []string{"path", "to"},
	Series: [][]string{{"admission", QualityPreview}},
}

// latencyBuckets covers whole-request latency from cache-hit-fast to
// deadline-slow.
var latencyBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// phaseBuckets resolve per-phase wall times. The fast-kernel work (PR 6)
// pulled typical frames to ~20ms and phases well under 10ms, which the
// old bottom bucket boundaries (1ms/2.5ms/5ms/10ms) lumped into two
// bins; the sub-10ms ladder keeps render/composite/gather distributions
// visible, while the upper decades still catch degraded worlds.
var phaseBuckets = []float64{.0005, .001, .002, .004, .006, .008, .01, .015, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metrics is renderd's observability surface: the handles of the
// families it registers with obs, which serves them on the sidecar's
// /metrics. Label values are pre-registered (methods from the core
// registry, the protocol's error codes), so the hot path never
// allocates or locks beyond a histogram's bucket mutex.
type metrics struct {
	reg *obs.Registry

	frames   *obs.Counter // completed frames per method
	errors   *obs.Counter // rejected/failed requests per code
	quality  *obs.Counter // served frames per delivered quality
	degrades *obs.Counter // degrade events per (path, to) pair

	worldRestarts *obs.Counter // rank worlds torn down and rebuilt
	wire          *obs.Counter // compositing bytes received, all ranks

	latency *obs.Histogram // admission-to-reply, whole request
	phases  *obs.Histogram // per phase, from the frame record
}

// newMetrics registers renderd's families in export order. queueDepth,
// inflight (the in-flight FIFO's length) and renderStats (the server's
// cumulative ray-caster counters) are sampled at scrape time; a nil
// flight (tracing disabled, or no sidecar) or a nil renderStats leaves
// its families out.
func newMetrics(queueDepth, inflight func() int, flight *trace.Flight, renderStats func() render.StatsSnapshot) *metrics {
	r := new(obs.Registry)
	m := &metrics{reg: r}
	m.frames = r.Counter("renderd_frames_total", "Frames served, by compositing method.", obs.Label("method", core.Names()...))
	m.errors = r.Counter("renderd_request_errors_total", "Requests answered with a typed error, by code.", obs.Label("code", errorCodes...))
	m.quality = r.Counter("renderd_quality_delivered_total", "Frames served, by delivered quality contract.", obs.Label("quality", qualityNames...))
	m.degrades = r.Counter("renderd_degraded_total", "Requests stepped below their asked quality contract, by degrade path and the contract landed on.", degradePaths)
	m.worldRestarts = r.Counter("renderd_world_restarts_total", "Rank worlds torn down and rebuilt after a pipeline failure or watchdog wedge.", obs.None)
	obs.GaugeFunc(r, "renderd_queue_depth", "Requests admitted and waiting for dispatch.", obs.None, func(int) int { return queueDepth() })
	obs.GaugeFunc(r, "renderd_inflight_frames", "Frames dispatched into the rank pool and not yet replied.", obs.None, func(int) int { return inflight() })
	m.wire = r.Counter("renderd_wire_bytes_total", "Compositing payload bytes received across all ranks.", obs.None)
	if flight != nil {
		obs.GaugeFunc(r, "renderd_flight_entries", "Frames retained by the flight recorder (tail-sampled: errors, hedges, >= p99).", obs.None, func(int) int { return flight.Len() })
	}
	if renderStats != nil {
		outcome := obs.Label("outcome", "evaluated", "skipped")
		obs.CounterFunc(r, "renderd_render_rays_total", "Rays cast with a sample inside the occupied hull of a rank's box.", obs.None, func(int) int64 { return renderStats().Rays })
		obs.CounterFunc(r, "renderd_render_samples_total", "Ray sample points, by whether macro-cell empty-space skipping removed them.", outcome, func(i int) int64 {
			rs := renderStats()
			return [...]int64{rs.Samples, rs.SamplesSkipped}[i]
		})
		obs.CounterFunc(r, "renderd_render_macrocells_total", "Macro cells stepped over by the ray caster's DDA, by classification outcome.", outcome, func(i int) int64 {
			rs := renderStats()
			return [...]int64{rs.CellsVisited - rs.CellsSkipped, rs.CellsSkipped}[i]
		})
	}
	m.latency = r.Histogram("renderd_frame_latency_seconds", "Admission-to-reply latency of served frames.", latencyBuckets, obs.None)
	m.phases = r.Histogram("renderd_phase_latency_seconds", "Wall time per phase of served frames: render and composite on the slowest rank, gather at rank 0.", phaseBuckets, obs.Label("phase", phaseNames...))
	return m
}
