package server

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sortlast/internal/render"
	"sortlast/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_*.txt from the current exposition")

// goldenMetrics drives a fixed script of observations into a fresh
// renderd metrics set: every family moves, every histogram (the frame
// latency and each phase) takes one traced and one untraced
// observation. full attaches the flight-recorder gauge and the
// ray-caster counters; bare leaves both absent, as with -no-trace on a
// server that exposes no render stats.
func goldenMetrics(full bool) *metrics {
	three, one := func() int { return 3 }, func() int { return 1 }
	m := newMetrics(three, one, nil, nil)
	if full {
		flight := trace.NewFlight(8)
		for i := 0; i < 5; i++ {
			flight.Observe(trace.FlightEntry{Outcome: CodeOverloaded})
		}
		m = newMetrics(three, one, flight, func() render.StatsSnapshot {
			return render.StatsSnapshot{Rays: 4096, Samples: 123456, SamplesSkipped: 654321, CellsVisited: 5000, CellsSkipped: 3200}
		})
	}
	m.frameDone("bsbrc", 42*time.Millisecond, 0xabcd)
	m.frameDone("bsbrc", 7*time.Millisecond, 0)
	m.frameDone("bs", 3*time.Second, 0x1)
	m.frameDone("dfb", 800*time.Microsecond, 0xfeedfacecafebeef)
	m.frameDone("ds", time.Minute, 0xffff)
	for i, code := range errorCodes {
		m.errors.Add(int64(i+1), code)
	}
	m.quality.Add(2, QualityFull)
	m.quality.Add(1, QualityPreview)
	m.degrades.Add(1, "admission", QualityPreview)
	m.worldRestarts.Add(2)
	m.wire.Add(1234567)
	m.phaseDone("render", 12*time.Millisecond, 0xabcd)
	m.phaseDone("render", 300*time.Microsecond, 0)
	m.phaseDone("composite", 2500*time.Microsecond, 0xabcd)
	m.phaseDone("composite", 20*time.Second, 0)
	m.phaseDone("gather", 450*time.Microsecond, 0x1)
	m.phaseDone("gather", 90*time.Millisecond, 0)
	return m
}

// goldenScrapes renders the classic and the OpenMetrics body.
func goldenScrapes(m *metrics) (classic, openMetrics string) {
	var c, o strings.Builder
	m.reg.Write(&c, false)
	m.reg.Write(&o, true)
	return c.String(), o.String()
}

// TestGoldenExposition pins renderd's full /metrics body — family
// order, HELP text, label order, le formatting, exemplar suffix and the
// # EOF trailer — for the classic and the OpenMetrics scrape. The files
// were generated from the hand-written exposition at b8c02f6, before
// internal/obs existed (since then only the three sample lines of the
// deleted approx contract, the nine lines of the deleted selector's
// per-method counter family and the three of the dropped-spans counter
// have left them, and two HELP lines were corrected); pass -update only
// when a metric is meant to change.
func TestGoldenExposition(t *testing.T) {
	for _, sc := range []struct {
		name string
		full bool
	}{{"full", true}, {"bare", false}} {
		classic, om := goldenScrapes(goldenMetrics(sc.full))
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
