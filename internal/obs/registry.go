// Package obs is the observability substrate under both serving daemons
// (renderd and the fleet gateway): the one place that knows the
// Prometheus / OpenMetrics text exposition format, and the HTTP sidecar
// that serves it next to /healthz, /debug/flight and /debug/pprof/.
//
// A daemon builds a Registry at start-up by registering its metric
// families in export order, keeps the returned handles, and bumps them
// on its hot path. Every family is a fixed set of series over Labels
// (an unlabelled family is the one-series case, None). Observation never
// allocates: a handle finds its series among the label values fixed at
// registration, then bumps an atomic or — for a histogram — takes one
// mutex to bump one bucket. All formatting happens at scrape time.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is an ordered set of metric families. Families are written in
// registration order; registration is not safe for concurrent use and
// belongs to daemon start-up, before the first scrape or observation.
type Registry struct {
	families []family
}

type family struct {
	name, help, kind string
	// samples writes the family's sample lines; exemplars is set on an
	// OpenMetrics scrape.
	samples func(w io.Writer, exemplars bool)
}

func (r *Registry) add(kind, name, help string, samples func(io.Writer, bool)) {
	r.families = append(r.families, family{name: name, help: help, kind: kind, samples: samples})
}

// Labels names the series of a family: Keys are the label names, Series
// the value tuples (one value per key) in export order. The set is
// fixed at registration, so the hot path never creates a series.
type Labels struct {
	Keys   []string
	Series [][]string
}

// None is the label set of an unlabelled family: no keys, and one
// series that is addressed with no values.
var None = Labels{Series: [][]string{nil}}

// Label builds the common single-label set: one series per value.
func Label(key string, vals ...string) Labels {
	l := Labels{Keys: []string{key}, Series: make([][]string, len(vals))}
	for i, v := range vals {
		l.Series[i] = []string{v}
	}
	return l
}

// render returns each series' `key="value",…` text without braces.
func (l Labels) render() []string {
	out := make([]string, len(l.Series))
	for i, vals := range l.Series {
		pairs := make([]string, len(l.Keys))
		for k, key := range l.Keys {
			pairs[k] = fmt.Sprintf("%s=%q", key, vals[k])
		}
		out[i] = strings.Join(pairs, ",")
	}
	return out
}

// index finds the series with exactly these label values, -1 when it
// was not registered.
func (l Labels) index(vals []string) int {
	for i, s := range l.Series {
		if slices.Equal(s, vals) {
			return i
		}
	}
	return -1
}

// sample writes one sample line; labels is empty or a rendered label
// list without braces.
func sample(w io.Writer, name, labels string, v any) {
	if labels == "" {
		fmt.Fprintf(w, "%s %v\n", name, v)
		return
	}
	fmt.Fprintf(w, "%s{%s} %v\n", name, labels, v)
}

// CounterFunc registers a counter family whose samples are read at
// scrape time: f(i) is the value of the i-th series of l (f(0) under
// None). Integer values print as integers, floats in %g form.
func CounterFunc[T int | int64 | float64](r *Registry, name, help string, l Labels, f func(series int) T) {
	funcFamily(r, "counter", name, help, l, f)
}

// GaugeFunc is CounterFunc for a gauge family.
func GaugeFunc[T int | int64 | float64](r *Registry, name, help string, l Labels, f func(series int) T) {
	funcFamily(r, "gauge", name, help, l, f)
}

func funcFamily[T int | int64 | float64](r *Registry, kind, name, help string, l Labels, f func(int) T) {
	rendered := l.render()
	r.add(kind, name, help, func(w io.Writer, _ bool) {
		for i, labels := range rendered {
			sample(w, name, labels, f(i))
		}
	})
}

// Counter is a counter family the daemon bumps itself: one atomic per
// series.
type Counter struct {
	labels Labels
	vals   []atomic.Int64
}

// Counter registers a counter family.
func (r *Registry) Counter(name, help string, l Labels) *Counter {
	c := &Counter{labels: l, vals: make([]atomic.Int64, len(l.Series))}
	CounterFunc(r, name, help, l, func(i int) int64 { return c.vals[i].Load() })
	return c
}

// Add bumps the series with these label values (none under None) by n;
// values that were not registered are ignored.
func (c *Counter) Add(n int64, vals ...string) {
	if i := c.labels.index(vals); i >= 0 {
		c.vals[i].Add(n)
	}
}

// Load reads one series, zero for unregistered values.
func (c *Counter) Load(vals ...string) int64 {
	if i := c.labels.index(vals); i >= 0 {
		return c.vals[i].Load()
	}
	return 0
}

// Histogram is a family of Prometheus-style cumulative histograms, one
// per series, over shared fixed upper bounds; an observation takes one
// mutex to bump one bucket. Observations may attach a trace ID; the
// latest per bucket is kept and emitted as an OpenMetrics exemplar, so a
// spike in a latency bucket links straight to a /debug/flight trace.
// Exemplars only appear when the scrape negotiated OpenMetrics: the
// classic text format allows nothing but an optional timestamp after
// the value, so an exemplar suffix would fail the whole scrape for a
// stock Prometheus client.
type Histogram struct {
	labels  Labels
	buckets []float64 // upper bounds, seconds, ascending; +Inf implicit
	series  []histSeries
}

type histSeries struct {
	mu      sync.Mutex
	buckets []bucket // len(Histogram.buckets)+1
	sum     float64
	count   int64
}

// bucket counts the observations that landed in it (not cumulative) and
// keeps the last traced one as its exemplar.
type bucket struct {
	n       int64
	traceID uint64 // zero = no exemplar
	val     float64
}

// Histogram registers a histogram family. buckets is shared by
// reference and must not be mutated.
func (r *Registry) Histogram(name, help string, buckets []float64, l Labels) *Histogram {
	h := &Histogram{labels: l, buckets: buckets, series: make([]histSeries, len(l.Series))}
	for i := range h.series {
		h.series[i].buckets = make([]bucket, len(buckets)+1)
	}
	rendered := l.render()
	r.add("histogram", name, help, func(w io.Writer, exemplars bool) {
		for i := range h.series {
			h.write(w, &h.series[i], name, rendered[i], exemplars)
		}
	})
	return h
}

// Observe records s seconds into the series with these label values
// (none under None); unregistered values are ignored. A nonzero traceID
// pins the observation as the owning bucket's exemplar; zero moves only
// the counts.
func (h *Histogram) Observe(s float64, traceID uint64, vals ...string) {
	i := h.labels.index(vals)
	if i < 0 {
		return
	}
	hs, b := &h.series[i], sort.SearchFloat64s(h.buckets, s)
	hs.mu.Lock()
	hs.buckets[b].n++
	hs.sum += s
	hs.count++
	if traceID != 0 {
		hs.buckets[b].traceID, hs.buckets[b].val = traceID, s
	}
	hs.mu.Unlock()
}

// write renders one series' sample lines. withExemplars appends each
// bucket's exemplar to that bucket's own line in OpenMetrics form
// (`… 12 # {trace_id="ab…"} 0.021`).
func (h *Histogram) write(w io.Writer, hs *histSeries, name, labels string, withExemplars bool) {
	hs.mu.Lock()
	buckets := append([]bucket(nil), hs.buckets...)
	sum, count := hs.sum, hs.count
	hs.mu.Unlock()
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, b := range buckets {
		cum += b.n
		le := "+Inf"
		if i < len(h.buckets) {
			le = fmt.Sprintf("%g", h.buckets[i])
		}
		suffix := ""
		if withExemplars && b.traceID != 0 {
			suffix = fmt.Sprintf(" # {trace_id=\"%016x\"} %g", b.traceID, b.val)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n", name, labels, sep, le, cum, suffix)
	}
	sample(w, name+"_sum", labels, sum)
	sample(w, name+"_count", labels, count)
}

// Write renders every family in registration order: the classic
// Prometheus text format — no exemplars, byte-identical whether or not
// observations carried trace IDs — or, with openMetrics, the same
// families plus per-bucket exemplars and the mandatory # EOF trailer.
func (r *Registry) Write(w io.Writer, openMetrics bool) {
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.samples(w, openMetrics)
	}
	if openMetrics {
		fmt.Fprintf(w, "# EOF\n")
	}
}

// The Content-Type values of the two exposition formats /metrics serves.
const (
	ContentTypeProm        = "text/plain; version=0.0.4"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// negotiatesOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format. A q=0 weight explicitly refuses the type.
func negotiatesOpenMetrics(accept string) bool {
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

// ServeHTTP answers a /metrics scrape in the format its Accept header
// negotiated.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	contentType, om := ContentTypeProm, negotiatesOpenMetrics(req.Header.Get("Accept"))
	if om {
		contentType = ContentTypeOpenMetrics
	}
	w.Header().Set("Content-Type", contentType)
	r.Write(w, om)
}
