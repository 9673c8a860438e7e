package obs

import (
	"strings"
	"testing"
)

func scrape(r *Registry, openMetrics bool) string {
	var sb strings.Builder
	r.Write(&sb, openMetrics)
	return sb.String()
}

// TestWriteEveryFamilyKind pins the exposition of each kind of family
// the registry offers, in registration order: HELP then TYPE then the
// samples, label pairs in key order, integers as integers and floats in
// %g form, and the # EOF trailer only under OpenMetrics.
func TestWriteEveryFamilyKind(t *testing.T) {
	r := new(Registry)
	c := r.Counter("t_plain_total", "A counter.", None)
	level := 1
	GaugeFunc(r, "t_level", "A gauge.", None, func(int) int { return level })
	v := r.Counter("t_by_code_total", "By code.", Label("code", "a", "b"))
	v2 := r.Counter("t_pairs_total", "By pair.", Labels{Keys: []string{"from", "to"}, Series: [][]string{{"x", "y"}, {"x", "z"}}})
	GaugeFunc(r, "t_sampled", "Sampled.", None, func(int) int { return 7 })
	CounterFunc(r, "t_per_replica_total", "Per replica.", Label("replica", "0", "1"), func(i int) int64 { return int64(10 * (i + 1)) })
	GaugeFunc(r, "t_seconds", "A float.", Label("replica", "0"), func(int) float64 { return 0.0135 })
	h := r.Histogram("t_latency_seconds", "Latency.", []float64{.01, .1}, None)
	hv := r.Histogram("t_phase_seconds", "Phases.", []float64{1}, Label("phase", "p", "q"))

	c.Add(3)
	v.Add(1, "b")
	v.Add(5, "nope") // not registered: ignored
	c.Add(5, "nope") // a label on an unlabelled family: ignored
	v2.Add(4, "x", "z")
	v2.Add(9, "x")      // wrong arity: ignored
	v2.Add(9, "z", "x") // wrong order: ignored
	h.Observe(.05, 0)
	hv.Observe(2, 0, "q")
	hv.Observe(2, 0, "r") // not registered: ignored

	want := `# HELP t_plain_total A counter.
# TYPE t_plain_total counter
t_plain_total 3
# HELP t_level A gauge.
# TYPE t_level gauge
t_level 1
# HELP t_by_code_total By code.
# TYPE t_by_code_total counter
t_by_code_total{code="a"} 0
t_by_code_total{code="b"} 1
# HELP t_pairs_total By pair.
# TYPE t_pairs_total counter
t_pairs_total{from="x",to="y"} 0
t_pairs_total{from="x",to="z"} 4
# HELP t_sampled Sampled.
# TYPE t_sampled gauge
t_sampled 7
# HELP t_per_replica_total Per replica.
# TYPE t_per_replica_total counter
t_per_replica_total{replica="0"} 10
t_per_replica_total{replica="1"} 20
# HELP t_seconds A float.
# TYPE t_seconds gauge
t_seconds{replica="0"} 0.0135
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{le="0.01"} 0
t_latency_seconds_bucket{le="0.1"} 1
t_latency_seconds_bucket{le="+Inf"} 1
t_latency_seconds_sum 0.05
t_latency_seconds_count 1
# HELP t_phase_seconds Phases.
# TYPE t_phase_seconds histogram
t_phase_seconds_bucket{phase="p",le="1"} 0
t_phase_seconds_bucket{phase="p",le="+Inf"} 0
t_phase_seconds_sum{phase="p"} 0
t_phase_seconds_count{phase="p"} 0
t_phase_seconds_bucket{phase="q",le="1"} 0
t_phase_seconds_bucket{phase="q",le="+Inf"} 1
t_phase_seconds_sum{phase="q"} 2
t_phase_seconds_count{phase="q"} 1
`
	if got := scrape(r, false); got != want {
		t.Errorf("classic exposition:\n%s\nwant:\n%s", got, want)
	}
	if got := scrape(r, true); got != want+"# EOF\n" {
		t.Errorf("OpenMetrics exposition without exemplars should be the classic one plus # EOF, got:\n%s", got)
	}
	if v.Load("b") != 1 || v.Load("nope") != 0 || v2.Load("x", "z") != 4 {
		t.Errorf("Load: b=%d nope=%d x,z=%d", v.Load("b"), v.Load("nope"), v2.Load("x", "z"))
	}
}

// TestHistogramCumulative asserts the histogram contract: an
// observation lands in the first bucket whose bound is >= it (bounds
// are inclusive), bucket values are cumulative, +Inf equals _count.
func TestHistogramCumulative(t *testing.T) {
	r := new(Registry)
	h := r.Histogram("h", "H.", []float64{1, 2, 4}, None)
	for _, s := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(s, 0)
	}
	for _, want := range []string{
		`h_bucket{le="1"} 2`, `h_bucket{le="2"} 3`, `h_bucket{le="4"} 4`, `h_bucket{le="+Inf"} 5`,
		"h_sum 107\n", "h_count 5\n",
	} {
		if out := scrape(r, false); !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestExemplars asserts traced observations surface as OpenMetrics
// exemplars on the owning bucket's sample line — but only on the
// OpenMetrics exposition. The classic format allows nothing after the
// sample value but an optional timestamp, so a stock Prometheus scrape
// must stay exemplar-free even when every observation is traced.
func TestExemplars(t *testing.T) {
	r := new(Registry)
	h := r.Histogram("lat", "L.", []float64{.01, .05, .1}, None)
	h.Observe(.042, 0xabcd)
	h.Observe(.043, 0) // untraced: counted, but the exemplar stays
	h.Observe(.2, 0x1)
	h.Observe(.3, 0x2) // same bucket: the latest trace wins

	if out := scrape(r, false); strings.Contains(out, "trace_id") {
		t.Fatalf("classic exposition carries an exemplar:\n%s", out)
	}
	out := scrape(r, true)
	for _, want := range []string{
		`lat_bucket{le="0.05"} 2 # {trace_id="000000000000abcd"} 0.042` + "\n",
		`lat_bucket{le="0.1"} 2` + "\n", // cumulative tail carries none
		`lat_bucket{le="+Inf"} 4 # {trace_id="0000000000000002"} 0.3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "trace_id"); n != 2 {
		t.Errorf("exemplars on %d lines, want 2 (the owning buckets only)", n)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF trailer")
	}
}

// TestObserveDoesNotAllocate pins the hot-path promise: bumping any
// handle — including the label lookup of the vec types — is free of
// heap allocations.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := new(Registry)
	c := r.Counter("c_total", "C.", None)
	v := r.Counter("v_total", "V.", Label("method", "bs", "bsbr", "bsbrc", "dfb"))
	v2 := r.Counter("p_total", "P.", Labels{Keys: []string{"path", "to"}, Series: [][]string{{"admission", "preview"}, {"watchdog", "preview"}}})
	h := r.Histogram("h", "H.", []float64{.01, .1, 1}, None)
	hv := r.Histogram("hv", "HV.", []float64{.01, .1, 1}, Label("phase", "render", "composite", "gather"))
	method, path := "dfb", "watchdog" // not constants: the lookup compares real strings
	if n := testing.AllocsPerRun(200, func() {
		c.Add(1)
		v.Add(1, method)
		v2.Add(1, path, "preview")
		h.Observe(.05, 0xabcd)
		hv.Observe(.05, 0xabcd, "gather")
	}); n != 0 {
		t.Errorf("observing allocates %v times per round, want 0", n)
	}
	if v.Load("dfb") == 0 || v2.Load("watchdog", "preview") == 0 {
		t.Error("observations were not recorded")
	}
}

// TestNegotiatesOpenMetrics pins the Accept-header negotiation that
// decides which exposition (and whether exemplars) a scrape gets.
func TestNegotiatesOpenMetrics(t *testing.T) {
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"text/plain;version=0.0.4", false},
		{"*/*", false},
		{"application/openmetrics-text", true},
		{"application/openmetrics-text;version=1.0.0", true},
		// Prometheus's real header: OpenMetrics preferred, classic fallback.
		{"application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1", true},
		{"text/plain;version=0.0.4, application/openmetrics-text; version=1.0.0; q=0.8", true},
		{"application/openmetrics-text;q=0", false},
	} {
		if got := NegotiatesOpenMetrics(tc.accept); got != tc.want {
			t.Errorf("NegotiatesOpenMetrics(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}
