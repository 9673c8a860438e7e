package server

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sortlast/internal/render"
)

func scrape(t *testing.T, m *metrics) string {
	t.Helper()
	var sb strings.Builder
	m.reg.Write(&sb, false)
	return sb.String()
}

// bareMetrics is a metrics set with no flight recorder and no render
// stats attached.
func bareMetrics(queueDepth int) *metrics {
	return newMetrics(func() int { return queueDepth }, func() int { return 0 }, nil, nil)
}

// frameDone records one served frame the way submit does.
func (m *metrics) frameDone(method string, latency time.Duration, traceID uint64) {
	m.frames.Add(1, method)
	m.latency.Observe(latency.Seconds(), traceID)
}

func (m *metrics) phaseDone(phase string, d time.Duration, traceID uint64) {
	m.phases.Observe(d.Seconds(), traceID, phase)
}

// metricName extracts the family name of a sample line, stripping the
// label set and the _bucket/_sum/_count histogram suffixes.
func metricName(line string) string {
	name := line
	if i := strings.IndexAny(name, "{ "); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suf)
	}
	return name
}

// TestWritePromExpositionValid asserts structural validity of the text
// exposition: every sample belongs to a family announced by HELP and
// TYPE lines (in that order, before any sample), and every sample value
// parses as a float.
func TestWritePromExpositionValid(t *testing.T) {
	m := bareMetrics(3)
	m.frameDone("bsbrc", 42*time.Millisecond, 0)
	m.frameDone("bs", 3*time.Second, 0)
	m.errors.Add(1, CodeOverloaded)
	m.phaseDone("render", 10*time.Millisecond, 0)
	m.phaseDone("composite", 2*time.Millisecond, 0)
	m.phaseDone("gather", 500*time.Microsecond, 0)
	out := scrape(t, m)

	help := map[string]bool{}
	typed := map[string]bool{}
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Errorf("HELP line without text: %q", line)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if !help[name] {
				t.Errorf("TYPE before HELP for %q", name)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown metric type %q in %q", kind, line)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		samples++
		name := metricName(line)
		if !help[name] || !typed[name] {
			t.Errorf("sample %q for unannounced family %q", line, name)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample without value: %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparsable value in %q: %v", line, err)
		}
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
}

// TestWritePromRenderStats asserts the ray-caster counters appear when a
// sampler is attached (with HELP/TYPE, passing the structural test
// above) and are absent otherwise.
func TestWritePromRenderStats(t *testing.T) {
	if out := scrape(t, bareMetrics(0)); strings.Contains(out, "renderd_render_") {
		t.Error("render counters exposed without a sampler attached")
	}
	var rs render.Stats
	rs.Rays.Store(10)
	rs.Samples.Store(400)
	rs.SamplesSkipped.Store(600)
	rs.CellsVisited.Store(50)
	rs.CellsSkipped.Store(30)
	out := scrape(t, newMetrics(func() int { return 0 }, func() int { return 0 }, nil, rs.Snapshot))
	for _, want := range []string{
		"renderd_render_rays_total 10",
		`renderd_render_samples_total{outcome="evaluated"} 400`,
		`renderd_render_samples_total{outcome="skipped"} 600`,
		`renderd_render_macrocells_total{outcome="evaluated"} 20`,
		`renderd_render_macrocells_total{outcome="skipped"} 30`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// histSeries collects one labeled histogram's cumulative bucket values
// plus its count, keyed off the exposition text.
func histSeries(t *testing.T, out, name, labels string) (buckets []float64, count float64) {
	t.Helper()
	prefix := name + "_bucket{" + labels
	countLine := name + "_count"
	if labels != "" {
		countLine += "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			buckets = append(buckets, v)
		}
		if strings.HasPrefix(line, countLine+" ") {
			i := strings.LastIndexByte(line, ' ')
			count, _ = strconv.ParseFloat(line[i+1:], 64)
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("no buckets found for %s{%s}", name, labels)
	}
	return buckets, count
}

// TestWritePromHistogramMonotone asserts the histogram contract: bucket
// values are cumulative (non-decreasing in le order), the +Inf bucket
// equals _count, and per-phase series are independent.
func TestWritePromHistogramMonotone(t *testing.T) {
	m := bareMetrics(0)
	for _, lat := range []time.Duration{time.Millisecond, 40 * time.Millisecond, 3 * time.Second, time.Minute} {
		m.frameDone("bsbrc", lat, 0)
	}
	m.phaseDone("render", 20*time.Millisecond, 0)
	m.phaseDone("render", 80*time.Millisecond, 0)
	out := scrape(t, m)

	check := func(name, labels string, wantCount float64) {
		buckets, count := histSeries(t, out, name, labels)
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Errorf("%s{%s}: bucket %d value %g < previous %g", name, labels, i, buckets[i], buckets[i-1])
			}
		}
		if last := buckets[len(buckets)-1]; last != count {
			t.Errorf("%s{%s}: +Inf bucket %g != count %g", name, labels, last, count)
		}
		if count != wantCount {
			t.Errorf("%s{%s}: count = %g, want %g", name, labels, count, wantCount)
		}
	}
	check("renderd_frame_latency_seconds", "", 4)
	check("renderd_phase_latency_seconds", fmt.Sprintf("phase=%q,", "render"), 2)
	check("renderd_phase_latency_seconds", fmt.Sprintf("phase=%q,", "composite"), 0)
	check("renderd_phase_latency_seconds", fmt.Sprintf("phase=%q,", "gather"), 0)
}

// TestPhaseBucketCoverage pins the PR 6 re-tune: phases of the fast
// kernel land at ~1–20ms, and the bucket ladder must actually resolve
// that range instead of lumping it into the bottom two bins.
func TestPhaseBucketCoverage(t *testing.T) {
	// At least 6 boundaries strictly below 10ms so a sub-10ms
	// distribution has shape.
	below := 0
	for _, ub := range phaseBuckets {
		if ub < .01 {
			below++
		}
	}
	if below < 6 {
		t.Fatalf("phase buckets have %d boundaries below 10ms, want >= 6: %v", below, phaseBuckets)
	}
	if !sort.Float64sAreSorted(phaseBuckets) {
		t.Fatalf("phase buckets not ascending: %v", phaseBuckets)
	}

	// A typical fast-kernel spread must scatter across distinct buckets.
	m := bareMetrics(0)
	spread := []time.Duration{
		800 * time.Microsecond, 1500 * time.Microsecond, 3 * time.Millisecond,
		5 * time.Millisecond, 7 * time.Millisecond, 9 * time.Millisecond,
		12 * time.Millisecond, 20 * time.Millisecond,
	}
	for _, d := range spread {
		m.phaseDone("render", d, 0)
	}
	// The exposition is cumulative: a bucket is occupied where it steps.
	buckets, _ := histSeries(t, scrape(t, m), "renderd_phase_latency_seconds", fmt.Sprintf("phase=%q,", "render"))
	occupied, prev := 0, 0.0
	for _, cum := range buckets {
		if cum > prev {
			occupied++
		}
		prev = cum
	}
	if occupied < 6 {
		t.Fatalf("8-point sub-25ms spread occupies %d buckets, want >= 6 (buckets %v)", occupied, phaseBuckets)
	}
}

// TestExemplars asserts traced observations surface as OpenMetrics
// exemplars on the owning bucket's sample line — but only on the
// OpenMetrics exposition. The classic format allows nothing after the
// sample value but an optional timestamp, so a stock Prometheus scrape
// must stay exemplar-free even when every request is traced.
func TestExemplars(t *testing.T) {
	m := bareMetrics(0)
	m.frameDone("bsbrc", 42*time.Millisecond, 0xabcd)

	// Classic scrape: no exemplars, ever.
	if out := scrape(t, m); strings.Contains(out, "trace_id") {
		t.Fatalf("classic exposition carries an exemplar:\n%s", out)
	}

	// OpenMetrics scrape: the owning bucket carries it, plus # EOF.
	var sb strings.Builder
	m.reg.Write(&sb, true)
	out := sb.String()
	want := `le="0.05"} 1 # {trace_id="000000000000abcd"} 0.042`
	if !strings.Contains(out, want) {
		t.Fatalf("OpenMetrics exposition missing exemplar %q in:\n%s", want, out)
	}
	// Exactly one bucket line carries it (the owning bucket, not the
	// cumulative tail).
	if n := strings.Count(out, "trace_id"); n != 1 {
		t.Fatalf("exemplar appears on %d lines, want 1", n)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("OpenMetrics exposition missing # EOF trailer")
	}
}
