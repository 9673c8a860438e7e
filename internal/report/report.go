// Package report renders experiment rows in the shapes the paper uses:
// Table 1/2-style blocks (T_comp / T_comm / T_total per method per
// processor count, grouped by dataset), Figure 8–11-style series
// (compositing time vs P for one dataset), the M_max comparison of §4,
// and machine-readable CSV.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"sortlast/internal/harness"
)

type key struct {
	dataset string
	method  string
	p       int
}

func index(rows []harness.Row) map[key]harness.Row {
	m := make(map[key]harness.Row, len(rows))
	for _, r := range rows {
		m[key{r.Dataset, r.Method, r.P}] = r
	}
	return m
}

func datasetsOf(rows []harness.Row) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Dataset] {
			seen[r.Dataset] = true
			out = append(out, r.Dataset)
		}
	}
	return out
}

func psOf(rows []harness.Row) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		if !seen[r.P] {
			seen[r.P] = true
			out = append(out, r.P)
		}
	}
	sort.Ints(out)
	return out
}

// Table renders rows as a paper-style table: one block per dataset, a
// line per processor count, and T_comp/T_comm/T_total columns per method
// (times in ms, the paper's unit).
func Table(title string, rows []harness.Row, methods []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	idx := index(rows)
	for _, ds := range datasetsOf(rows) {
		fmt.Fprintf(&sb, "\n  %s\n", ds)
		tw := tabwriter.NewWriter(&sb, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "    P\t")
		for _, m := range methods {
			fmt.Fprintf(tw, "%s comp\t%s comm\t%s total\t", m, m, m)
		}
		fmt.Fprintln(tw)
		for _, p := range psOf(rows) {
			fmt.Fprintf(tw, "    %d\t", p)
			for _, m := range methods {
				r, ok := idx[key{ds, m, p}]
				if !ok {
					fmt.Fprint(tw, "-\t-\t-\t")
					continue
				}
				fmt.Fprintf(tw, "%.2f\t%.2f\t%.2f\t", r.CompMS, r.CommMS, r.TotalMS)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return sb.String()
}

// Figure renders the total compositing time of each method against P for
// one dataset — the series behind Figures 8–11.
func Figure(title string, rows []harness.Row, methods []string, dataset string) string {
	return series(title, "total compositing time, ms", rows, methods, dataset,
		func(r harness.Row) string { return fmt.Sprintf("%.2f", r.TotalMS) })
}

// MMax renders the maximum received message size per method and P for
// one dataset — the quantity ordered by the paper's Eq. 9.
func MMax(title string, rows []harness.Row, methods []string, dataset string) string {
	return series(title, "M_max in bytes", rows, methods, dataset,
		func(r harness.Row) string { return fmt.Sprintf("%d", r.MMax) })
}

// series renders cell of each method's row against P for one dataset,
// "-" where no row exists; quantity names the cell in the title line.
func series(title, quantity string, rows []harness.Row, methods []string, dataset string,
	cell func(harness.Row) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s, %s)\n", title, dataset, quantity)
	idx := index(rows)
	tw := tabwriter.NewWriter(&sb, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "  P\t")
	for _, m := range methods {
		fmt.Fprintf(tw, "%s\t", m)
	}
	fmt.Fprintln(tw)
	for _, p := range psOf(rows) {
		fmt.Fprintf(tw, "  %d\t", p)
		for _, m := range methods {
			if r, ok := idx[key{dataset, m, p}]; ok {
				fmt.Fprintf(tw, "%s\t", cell(r))
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return sb.String()
}

// CSV renders every row with a header, for downstream plotting. The
// makespan_ms cell is empty for rows without one (MakespanMS 0: the
// methods off the binary-swap schedule).
func CSV(rows []harness.Row) string {
	var sb strings.Builder
	sb.WriteString("dataset,method,p,width,height,comp_ms,comm_ms,total_ms," +
		"makespan_ms,measured_comp_ms,render_ms,mmax_bytes,empty_rects,nonblank,render_imbalance\n")
	for _, r := range rows {
		makespan := ""
		if r.MakespanMS != 0 {
			makespan = fmt.Sprintf("%.4f", r.MakespanMS)
		}
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%d,%.4f,%.4f,%.4f,%s,%.4f,%.4f,%d,%d,%d,%.3f\n",
			r.Dataset, r.Method, r.P, r.Width, r.Height,
			r.CompMS, r.CommMS, r.TotalMS, makespan, r.MeasuredCompMS, r.RenderMS,
			r.MMax, r.EmptyRects, r.NonBlank, r.RenderImbalance)
	}
	return sb.String()
}
