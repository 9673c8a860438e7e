package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sortlast/internal/autotune"
	"sortlast/internal/core"
	"sortlast/internal/render"
)

// histogram is a Prometheus-style cumulative histogram: fixed upper
// bounds, one mutex-guarded bump per observation. Bucket bounds are
// shared by reference across instances (they are never mutated).
// Observations may attach a trace ID; the latest per bucket is kept and
// emitted as an OpenMetrics exemplar, so a spike in a latency bucket
// links straight to a /debug/flight trace. Exemplars only appear when
// the scrape negotiated OpenMetrics: the classic text format
// (text/plain; version=0.0.4) allows nothing but an optional timestamp
// after the value, so an exemplar suffix would fail the whole scrape
// for a stock Prometheus client.
type histogram struct {
	buckets []float64 // upper bounds, seconds, ascending; +Inf implicit

	mu        sync.Mutex
	counts    []int64 // len(buckets)+1
	sum       float64
	count     int64
	exemplars []exemplar // len(buckets)+1, zero id = none
}

// exemplar is the last traced observation that landed in one bucket.
type exemplar struct {
	id  uint64 // trace ID, zero = no exemplar
	val float64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{
		buckets:   buckets,
		counts:    make([]int64, len(buckets)+1),
		exemplars: make([]exemplar, len(buckets)+1),
	}
}

func (h *histogram) observe(s float64) { h.observeTraced(s, 0) }

// observeTraced records an observation carrying a trace ID (zero for
// untraced; only the bucket count moves then).
func (h *histogram) observeTraced(s float64, traceID uint64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.buckets, s)
	h.counts[i]++
	h.sum += s
	h.count++
	if traceID != 0 {
		h.exemplars[i] = exemplar{id: traceID, val: s}
	}
	h.mu.Unlock()
}

// write renders the histogram's sample lines (no HELP/TYPE header, so
// several labeled instances can share one metric family). labels is
// either empty or a `key="value"` list without braces. withExemplars
// appends each bucket's exemplar in OpenMetrics form; pass it only for
// an OpenMetrics-negotiated scrape — the classic text parser rejects
// any trailing annotation, failing the entire scrape.
func (h *histogram) write(w io.Writer, name, labels string, withExemplars bool) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	exemplars := append([]exemplar(nil), h.exemplars...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	sep := ""
	if labels != "" {
		sep = ","
	}
	// exemplarSuffix renders bucket i's exemplar appended to the sample
	// line ("... 12 # {trace_id="ab..."} 0.021"), empty on a classic
	// scrape or for a bucket that never saw a traced observation.
	exemplarSuffix := func(i int) string {
		if !withExemplars || exemplars[i].id == 0 {
			return ""
		}
		return fmt.Sprintf(" # {trace_id=\"%016x\"} %g", exemplars[i].id, exemplars[i].val)
	}
	cum := int64(0)
	for i, ub := range h.buckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n", name, labels, sep, trimFloat(ub), cum, exemplarSuffix(i))
	}
	cum += counts[len(h.buckets)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d%s\n", name, labels, sep, cum, exemplarSuffix(len(h.buckets)))
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, count)
	}
}

// phases of a frame with per-phase latency histograms, in export order.
var phaseNames = []string{"render", "composite", "gather"}

// errorCodes pre-registers the typed reply codes, in export order.
var errorCodes = []string{CodeOverloaded, CodeBadRequest, CodeDeadline, CodeShutdown, CodeInternal, CodeWorldFailed}

// qualityNames pre-registers the delivered-quality labels, in export
// order (highest fidelity first).
var qualityNames = []string{QualityFull, QualityApprox, QualityPreview}

// degradePaths pre-registers every (degrade path, landed-on contract)
// pair that can occur: admission walks the ladder one rung at a time,
// the watchdog only ever demotes to approx.
var degradePaths = []struct{ path, to string }{
	{"admission", QualityApprox},
	{"admission", QualityPreview},
	{"watchdog", QualityApprox},
}

// metrics is renderd's observability surface, exposed as Prometheus
// text format on the HTTP sidecar. Counters are lock-free atomics keyed
// by pre-registered label values (methods from the core registry, the
// protocol's error codes), so the hot path never allocates or locks; the
// latency histograms take a mutex only to bump one bucket.
type metrics struct {
	frames        map[string]*atomic.Int64 // completed frames per method
	selected      map[string]*atomic.Int64 // auto-selected frames per chosen method
	errors        map[string]*atomic.Int64 // rejected/failed requests per code
	quality       map[string]*atomic.Int64 // served frames per delivered quality
	degrades      map[string]*atomic.Int64 // degrade events per "path|to" pair
	inflight      atomic.Int64             // frames dispatched, not yet replied
	wire          atomic.Int64             // compositing bytes received, all ranks
	worldRestarts atomic.Int64             // rank worlds torn down and rebuilt
	spansDropped  atomic.Int64             // spans a frame's recorder discarded at trace.MaxRankSpans

	queueDepth func() int // sampled at scrape time

	// flightLen samples the flight recorder's retained-entry count at
	// scrape time; nil when the recorder is disabled.
	flightLen func() int

	// renderStats samples the server's cumulative ray-caster counters
	// (rays, samples, macro-cell skips) at scrape time; nil when the
	// server exposes none.
	renderStats func() render.StatsSnapshot

	latency *histogram            // admission-to-reply, whole request
	phases  map[string]*histogram // per-phase (slowest rank), from spans
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

func newMetrics(queueDepth func() int) *metrics {
	m := &metrics{
		frames:     make(map[string]*atomic.Int64),
		selected:   make(map[string]*atomic.Int64),
		errors:     make(map[string]*atomic.Int64),
		quality:    make(map[string]*atomic.Int64),
		degrades:   make(map[string]*atomic.Int64),
		queueDepth: queueDepth,
		latency:    newHistogram(latencyBuckets),
		phases:     make(map[string]*histogram),
	}
	for _, name := range core.Names() {
		m.frames[name] = new(atomic.Int64)
	}
	for _, name := range autotune.Candidates() {
		m.selected[name] = new(atomic.Int64)
	}
	for _, code := range errorCodes {
		m.errors[code] = new(atomic.Int64)
	}
	for _, p := range phaseNames {
		m.phases[p] = newHistogram(phaseBuckets)
	}
	for _, q := range qualityNames {
		m.quality[q] = new(atomic.Int64)
	}
	for _, d := range degradePaths {
		m.degrades[d.path+"|"+d.to] = new(atomic.Int64)
	}
	return m
}

// qualityDelivered counts one served frame under its delivered quality
// contract.
func (m *metrics) qualityDelivered(q string) {
	if c := m.quality[q]; c != nil {
		c.Add(1)
	}
}

// degraded counts n degrade decisions: path is where the ladder was
// walked ("admission" under queue saturation, "watchdog" on a slow
// frame's first trip), to is the contract landed on.
func (m *metrics) degraded(path, to string, n int64) {
	if c := m.degrades[path+"|"+to]; c != nil {
		c.Add(n)
	}
}

// frameDone records one served frame; traceID (zero if untraced) links
// the latency observation to its trace as an exemplar.
func (m *metrics) frameDone(method string, latency time.Duration, traceID uint64) {
	if c := m.frames[method]; c != nil {
		c.Add(1)
	}
	m.latency.observeTraced(latency.Seconds(), traceID)
}

// methodSelected counts one Method "auto" frame resolved to method.
func (m *metrics) methodSelected(method string) {
	if c := m.selected[method]; c != nil {
		c.Add(1)
	}
}

// phaseDone records one phase's completion time (the slowest rank's
// span total for that phase), with an optional exemplar trace ID.
func (m *metrics) phaseDone(phase string, d time.Duration, traceID uint64) {
	if h := m.phases[phase]; h != nil {
		h.observeTraced(d.Seconds(), traceID)
	}
}

func (m *metrics) requestFailed(code string) {
	if c := m.errors[code]; c != nil {
		c.Add(1)
	}
}

// ContentTypeProm and ContentTypeOpenMetrics are the Content-Type
// values of the two exposition formats /metrics can serve.
const (
	ContentTypeProm        = "text/plain; version=0.0.4"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// NegotiatesOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format. Only OpenMetrics scrapes get exemplars: the
// classic text parser allows nothing after the sample value but an
// optional timestamp, so exemplar suffixes would fail the whole scrape.
// A q=0 weight explicitly refuses the type.
func NegotiatesOpenMetrics(accept string) bool {
	for _, clause := range strings.Split(accept, ",") {
		mediaType, params, _ := strings.Cut(strings.TrimSpace(clause), ";")
		if strings.TrimSpace(mediaType) != "application/openmetrics-text" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok &&
				strings.TrimSpace(k) == "q" && strings.TrimSpace(v) == "0" {
				return false
			}
		}
		return true
	}
	return false
}

// WriteProm renders the metrics in the classic Prometheus text
// exposition format — no exemplars, byte-identical whether or not
// requests carried trace IDs.
func (m *metrics) WriteProm(w io.Writer) { m.write(w, false) }

// WriteOpenMetrics renders the metrics as OpenMetrics text: the same
// families plus per-bucket trace-ID exemplars and the mandatory # EOF
// trailer.
func (m *metrics) WriteOpenMetrics(w io.Writer) {
	m.write(w, true)
	fmt.Fprintf(w, "# EOF\n")
}

func (m *metrics) write(w io.Writer, exemplars bool) {
	fmt.Fprintf(w, "# HELP renderd_frames_total Frames served, by compositing method.\n")
	fmt.Fprintf(w, "# TYPE renderd_frames_total counter\n")
	for _, name := range core.Names() {
		fmt.Fprintf(w, "renderd_frames_total{method=%q} %d\n", name, m.frames[name].Load())
	}
	fmt.Fprintf(w, "# HELP renderd_method_selected_total Method-auto frames, by the method the selector chose.\n")
	fmt.Fprintf(w, "# TYPE renderd_method_selected_total counter\n")
	for _, name := range autotune.Candidates() {
		fmt.Fprintf(w, "renderd_method_selected_total{method=%q} %d\n", name, m.selected[name].Load())
	}
	fmt.Fprintf(w, "# HELP renderd_request_errors_total Requests answered with a typed error, by code.\n")
	fmt.Fprintf(w, "# TYPE renderd_request_errors_total counter\n")
	for _, code := range errorCodes {
		fmt.Fprintf(w, "renderd_request_errors_total{code=%q} %d\n", code, m.errors[code].Load())
	}
	fmt.Fprintf(w, "# HELP renderd_quality_delivered_total Frames served, by delivered quality contract.\n")
	fmt.Fprintf(w, "# TYPE renderd_quality_delivered_total counter\n")
	for _, q := range qualityNames {
		fmt.Fprintf(w, "renderd_quality_delivered_total{quality=%q} %d\n", q, m.quality[q].Load())
	}
	fmt.Fprintf(w, "# HELP renderd_degraded_total Requests stepped below their asked quality contract, by degrade path and the contract landed on.\n")
	fmt.Fprintf(w, "# TYPE renderd_degraded_total counter\n")
	for _, d := range degradePaths {
		fmt.Fprintf(w, "renderd_degraded_total{path=%q,to=%q} %d\n", d.path, d.to, m.degrades[d.path+"|"+d.to].Load())
	}
	fmt.Fprintf(w, "# HELP renderd_world_restarts_total Rank worlds torn down and rebuilt after a pipeline failure or watchdog wedge.\n")
	fmt.Fprintf(w, "# TYPE renderd_world_restarts_total counter\n")
	fmt.Fprintf(w, "renderd_world_restarts_total %d\n", m.worldRestarts.Load())
	fmt.Fprintf(w, "# HELP renderd_trace_spans_dropped_total Spans discarded because a rank's recorder reached its span cap; the frame's trace is flagged truncated.\n")
	fmt.Fprintf(w, "# TYPE renderd_trace_spans_dropped_total counter\n")
	fmt.Fprintf(w, "renderd_trace_spans_dropped_total %d\n", m.spansDropped.Load())
	fmt.Fprintf(w, "# HELP renderd_queue_depth Requests admitted and waiting for dispatch.\n")
	fmt.Fprintf(w, "# TYPE renderd_queue_depth gauge\n")
	fmt.Fprintf(w, "renderd_queue_depth %d\n", m.queueDepth())
	fmt.Fprintf(w, "# HELP renderd_inflight_frames Frames dispatched into the rank pool and not yet replied.\n")
	fmt.Fprintf(w, "# TYPE renderd_inflight_frames gauge\n")
	fmt.Fprintf(w, "renderd_inflight_frames %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP renderd_wire_bytes_total Compositing payload bytes received across all ranks (mp message log).\n")
	fmt.Fprintf(w, "# TYPE renderd_wire_bytes_total counter\n")
	fmt.Fprintf(w, "renderd_wire_bytes_total %d\n", m.wire.Load())
	if m.flightLen != nil {
		fmt.Fprintf(w, "# HELP renderd_flight_entries Frames retained by the flight recorder (tail-sampled: errors, hedges, >= p99).\n")
		fmt.Fprintf(w, "# TYPE renderd_flight_entries gauge\n")
		fmt.Fprintf(w, "renderd_flight_entries %d\n", m.flightLen())
	}

	if m.renderStats != nil {
		rs := m.renderStats()
		fmt.Fprintf(w, "# HELP renderd_render_rays_total Rays cast whose sample interval intersected a rank's box.\n")
		fmt.Fprintf(w, "# TYPE renderd_render_rays_total counter\n")
		fmt.Fprintf(w, "renderd_render_rays_total %d\n", rs.Rays)
		fmt.Fprintf(w, "# HELP renderd_render_samples_total Ray sample points, by whether macro-cell empty-space skipping removed them.\n")
		fmt.Fprintf(w, "# TYPE renderd_render_samples_total counter\n")
		fmt.Fprintf(w, "renderd_render_samples_total{outcome=\"evaluated\"} %d\n", rs.Samples)
		fmt.Fprintf(w, "renderd_render_samples_total{outcome=\"skipped\"} %d\n", rs.SamplesSkipped)
		fmt.Fprintf(w, "# HELP renderd_render_macrocells_total Macro cells stepped over by the ray caster's DDA, by classification outcome.\n")
		fmt.Fprintf(w, "# TYPE renderd_render_macrocells_total counter\n")
		fmt.Fprintf(w, "renderd_render_macrocells_total{outcome=\"evaluated\"} %d\n", rs.CellsVisited-rs.CellsSkipped)
		fmt.Fprintf(w, "renderd_render_macrocells_total{outcome=\"skipped\"} %d\n", rs.CellsSkipped)
	}

	fmt.Fprintf(w, "# HELP renderd_frame_latency_seconds Admission-to-reply latency of served frames.\n")
	fmt.Fprintf(w, "# TYPE renderd_frame_latency_seconds histogram\n")
	m.latency.write(w, "renderd_frame_latency_seconds", "", exemplars)

	fmt.Fprintf(w, "# HELP renderd_phase_latency_seconds Slowest-rank wall time per frame phase, from trace spans.\n")
	fmt.Fprintf(w, "# TYPE renderd_phase_latency_seconds histogram\n")
	for _, p := range phaseNames {
		m.phases[p].write(w, "renderd_phase_latency_seconds", fmt.Sprintf("phase=%q", p), exemplars)
	}
}

func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }
