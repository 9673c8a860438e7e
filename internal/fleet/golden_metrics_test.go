package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sortlast/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_*.txt from the current exposition")

// goldenGateway builds a gateway that serves nothing and drives a fixed
// script into its counters, its per-replica state and its latency
// histogram (one traced and one untraced observation per touched
// bucket). full has three replicas, a populated frame cache and a
// flight recorder; bare has two replicas, no cache and tracing off.
func goldenGateway(full bool) *Gateway {
	g := &Gateway{}
	n := 2
	if full {
		n = 3
		g.flight = trace.NewFlight(4)
		for i := 0; i < 2; i++ {
			g.flight.Observe(trace.FlightEntry{Outcome: CodeDeadline})
		}
		g.cache = newFrameCache(1 << 20)
		for i, size := range []int{1000, 2000, 4000} {
			g.cache.put(&cacheEntry{key: cacheKey{dataset: "cube", qx: i}, gray: make([]byte, size)})
		}
	}
	for i := 0; i < n; i++ {
		r := &replica{idx: i}
		r.frames.Add(int64(100 * (i + 1)))
		r.errs.Add(int64(i))
		r.hedgesWon.Add(int64(2 * i))
		r.outstanding.Add(int64(n - i))
		for k := 1; k <= 10*(i+1); k++ {
			r.win.observe(time.Duration(k*(i+1)) * 1500 * time.Microsecond)
		}
		g.replicas = append(g.replicas, r)
	}
	g.met = newFleetMetrics(g)
	g.met.requests.Add(640)
	g.met.errored.Add(9)
	g.met.cache.Add(300, "hit")
	g.met.cache.Add(340, "miss")
	g.met.cacheEvict.Add(12)
	g.met.hedges.Add(6)
	g.met.hedgeWins.Add(4)
	g.met.retries.Add(3)
	g.met.latency.Observe(.00005, 0xabcd)
	g.met.latency.Observe(.0003, 0)
	g.met.latency.Observe(.021, 0xfeedfacecafebeef)
	g.met.latency.Observe(.021, 0)
	g.met.latency.Observe(42, 0x1)
	return g
}

func goldenScrapes(g *Gateway) (classic, openMetrics string) {
	var c, o strings.Builder
	g.met.reg.Write(&c, false)
	g.met.reg.Write(&o, true)
	return c.String(), o.String()
}

// TestGoldenExposition pins the gateway's full /metrics body — family
// order, HELP text, label order, le formatting, exemplar suffix and the
// # EOF trailer — for the classic and the OpenMetrics scrape. The files
// were generated from the hand-written exposition at b8c02f6, before
// internal/obs existed; pass -update only when a metric is meant to
// change.
func TestGoldenExposition(t *testing.T) {
	for _, sc := range []struct {
		name string
		full bool
	}{{"full", true}, {"bare", false}} {
		classic, om := goldenScrapes(goldenGateway(sc.full))
		compareGolden(t, "metrics_"+sc.name+"_classic.txt", classic)
		compareGolden(t, "metrics_"+sc.name+"_openmetrics.txt", om)
	}
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", name, i+1, g, w)
		}
	}
}
