package report

import (
	"slices"
	"strings"
	"testing"

	"sortlast/internal/harness"
)

func sampleRows() []harness.Row {
	var rows []harness.Row
	for _, ds := range []string{"engine_low", "cube"} {
		for _, m := range []string{"BS", "BSBRC"} {
			for _, p := range []int{2, 4} {
				rows = append(rows, harness.Row{
					Dataset: ds, Method: m, P: p, Width: 384, Height: 384,
					CompMS: float64(p), CommMS: 0.5, TotalMS: float64(p) + 0.5,
					MMax: p * 1000,
				})
			}
		}
	}
	return rows
}

func TestTableContainsAllCells(t *testing.T) {
	out := Table("Table 1", sampleRows(), []string{"BS", "BSBRC"})
	for _, want := range []string{"Table 1", "engine_low", "cube", "BS comp", "BSBRC total", "2.50", "4.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarksMissingCells(t *testing.T) {
	rows := sampleRows()[:1]
	out := Table("t", rows, []string{"BS", "BSBRC"})
	if !strings.Contains(out, "-") {
		t.Error("missing cells must render as -")
	}
}

func TestFigureSeries(t *testing.T) {
	out := Figure("Figure 8", sampleRows(), []string{"BS", "BSBRC"}, "engine_low")
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "engine_low") {
		t.Error("figure header wrong")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, column line, P=2, P=4
		t.Errorf("figure has %d lines:\n%s", len(lines), out)
	}
}

func TestMMaxTable(t *testing.T) {
	out := MMax("Eq. 9", sampleRows(), []string{"BS", "BSBRC"}, "cube")
	if !strings.Contains(out, "2000") || !strings.Contains(out, "4000") {
		t.Errorf("M_max values missing:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV(sampleRows())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "dataset,method,p,") || !strings.HasSuffix(lines[0], ",nonblank,render_imbalance") {
		t.Error("csv header wrong")
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Errorf("csv row has a different field count than the header: %s", l)
		}
	}
	if !strings.Contains(lines[1], "engine_low,BS,2,384,384,") {
		t.Errorf("csv row wrong: %s", lines[1])
	}
}

// A row without a makespan (the owner-routed methods) leaves that cell
// empty; a swap row prints it.
func TestCSVEmptyMakespan(t *testing.T) {
	rows := []harness.Row{{Dataset: "cube", Method: "DFB", P: 3}, {Dataset: "cube", Method: "BS", P: 3, MakespanMS: 1.5}}
	lines := strings.Split(strings.TrimSpace(CSV(rows)), "\n")
	col := slices.Index(strings.Split(lines[0], ","), "makespan_ms")
	for i, want := range []string{"", "1.5000"} {
		if got := strings.Split(lines[1+i], ",")[col]; got != want {
			t.Errorf("%s makespan_ms cell = %q, want %q", rows[i].Method, got, want)
		}
	}
}
