// Command composebench regenerates the paper's evaluation (§4) from the
// command line: Table 1 (384x384), Table 2 (768x768), Figures 8-11 (the
// per-dataset compositing-time series) and the Eq. 9 M_max comparison.
//
// Examples:
//
//	composebench -table 1
//	composebench -table 1 -method bsbr,bsbrc
//	composebench -figure 11 -maxp 32
//	composebench -mmax -dataset cube
//	composebench -all -csv
//	composebench -table 1 -method direct,ds,dfb,bsbrc -plist 3,6 -dataset cube
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sortlast/internal/core"
	"sortlast/internal/harness"
	"sortlast/internal/report"
	"sortlast/internal/trace"
)

var (
	table     = flag.Int("table", 0, "regenerate Table 1 or 2")
	figure    = flag.Int("figure", 0, "regenerate Figure 8, 9, 10 or 11")
	mmax      = flag.Bool("mmax", false, "regenerate the Eq. 9 M_max comparison")
	all       = flag.Bool("all", false, "regenerate every table and figure")
	dataset   = flag.String("dataset", "", "restrict to one dataset (engine_low, engine_high, head, cube)")
	methodsFl = flag.String("method", "", "comma-separated methods overriding each sweep's method set")
	maxP      = flag.Int("maxp", 64, "largest processor count in the sweep")
	plist     = flag.String("plist", "", "comma-separated explicit processor counts overriding the power-of-two sweep")
	tileFl    = flag.Int("tile", 0, "dfb tile edge in pixels (0: core.DefaultTile)")
	rotX      = flag.Float64("rotx", 20, "viewpoint rotation about x (degrees)")
	rotY      = flag.Float64("roty", 30, "viewpoint rotation about y (degrees)")
	csv       = flag.Bool("csv", false, "emit CSV instead of formatted tables")
	traceOut  = flag.String("trace", "", "write a Chrome/Perfetto span trace of the last sweep cell to this JSON file")
)

// lastTrace is the recorder of the most recently completed sweep cell,
// written to -trace after the sweep finishes.
var lastTrace *trace.Recorder

var figureDataset = map[int]string{
	8:  "engine_low",
	9:  "head",
	10: "engine_high",
	11: "cube",
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "composebench:", err)
		os.Exit(1)
	}
}

func datasets() []string {
	if *dataset != "" {
		return []string{*dataset}
	}
	return harness.Datasets()
}

// sweepPs is the processor-count axis: -plist verbatim when given,
// otherwise the power-of-two ladder up to -maxp.
func sweepPs() ([]int, error) {
	if *plist == "" {
		if *maxP < 2 {
			flag.Usage()
			return nil, fmt.Errorf("-maxp %d: the power-of-two sweep starts at 2 (use -plist for other counts)", *maxP)
		}
		return harness.PowersOfTwo(*maxP), nil
	}
	var ps []int
	for _, s := range strings.Split(*plist, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-plist: bad processor count %q", s)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// methodOverride is -method trimmed and checked against the registry,
// nil when the flag is unset.
func methodOverride() ([]string, error) {
	if *methodsFl == "" {
		return nil, nil
	}
	ms := strings.Split(*methodsFl, ",")
	for i, m := range ms {
		ms[i] = strings.TrimSpace(m)
		if _, err := core.New(ms[i]); err != nil {
			return nil, fmt.Errorf("-method: %w", err)
		}
	}
	return ms, nil
}

// sweep runs dataset x method x P at one image size.
func sweep(size int, methods, ds []string, ps []int) ([]harness.Row, error) {
	var rows []harness.Row
	for _, d := range ds {
		for _, m := range methods {
			for _, p := range ps {
				cfg := harness.Config{
					Dataset: d, Width: size, Height: size,
					P: p, Method: m, RotX: *rotX, RotY: *rotY,
					Tile: *tileFl,
				}
				if *traceOut != "" {
					cfg.Trace = trace.NewRecorder(p)
					lastTrace = cfg.Trace
				}
				row, err := harness.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/P%d: %w", d, m, p, err)
				}
				// Key the cell by the requested name: the compositor's own
				// display name differs for direct and for folded runs.
				row.Method = strings.ToUpper(m)
				rows = append(rows, *row)
				fmt.Fprintf(os.Stderr, ".")
			}
		}
	}
	fmt.Fprintln(os.Stderr)
	return rows, nil
}

func emit(rows []harness.Row, format func() string) {
	if *csv {
		fmt.Print(report.CSV(rows))
		return
	}
	fmt.Println(format())
}

func run() error {
	// Both axes are checked before the first cell runs, so a typo fails
	// here and not after the sweep of the names in front of it.
	override, err := methodOverride()
	if err != nil {
		return err
	}
	ps, err := sweepPs()
	if err != nil {
		return err
	}
	did := false
	display := func(ms []string) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = strings.ToUpper(m)
		}
		return out
	}
	// -method overrides the method set a table or figure sweeps.
	pick := func(def []string) []string {
		if override == nil {
			return def
		}
		return override
	}

	if *all || *table == 1 {
		did = true
		methods := pick(core.PaperMethods())
		rows, err := sweep(384, methods, datasets(), ps)
		if err != nil {
			return err
		}
		emit(rows, func() string {
			return report.Table("Table 1: compositing time, 384x384 (modeled ms, SP2 parameters)",
				rows, display(methods))
		})
	}
	if *all || *table == 2 {
		did = true
		methods := pick([]string{"bsbr", "bslc", "bsbrc"})
		rows, err := sweep(768, methods, datasets(), ps)
		if err != nil {
			return err
		}
		emit(rows, func() string {
			return report.Table("Table 2: compositing time, 768x768 (modeled ms, SP2 parameters)",
				rows, display(methods))
		})
	}
	figs := []int{}
	if *figure != 0 {
		figs = append(figs, *figure)
	} else if *all {
		figs = []int{8, 9, 10, 11}
	}
	for _, f := range figs {
		ds, ok := figureDataset[f]
		if !ok {
			return fmt.Errorf("unknown figure %d (want 8-11)", f)
		}
		did = true
		methods := pick([]string{"bsbr", "bslc", "bsbrc"})
		rows, err := sweep(384, methods, []string{ds}, ps)
		if err != nil {
			return err
		}
		f := f
		emit(rows, func() string {
			return report.Figure(fmt.Sprintf("Figure %d", f), rows, display(methods), ds)
		})
	}
	if *all || *mmax {
		did = true
		methods := pick(core.PaperMethods())
		for _, ds := range datasets() {
			rows, err := sweep(384, methods, []string{ds}, ps)
			if err != nil {
				return err
			}
			ds := ds
			emit(rows, func() string {
				return report.MMax("Eq. 9 maximum received message size", rows, display(methods), ds)
			})
		}
	}
	if !did {
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -table, -figure, -mmax or -all")
	}
	if *traceOut != "" {
		if lastTrace == nil {
			return fmt.Errorf("-trace: no sweep cell ran")
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		werr := lastTrace.Wire("sortlast").WritePerfetto(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace %s: %w", *traceOut, werr)
		}
		fmt.Fprintf(os.Stderr, "wrote trace %s (last sweep cell; load in ui.perfetto.dev)\n", *traceOut)
	}
	return nil
}
