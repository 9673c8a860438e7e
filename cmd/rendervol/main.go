// Command rendervol renders a built-in dataset to a PGM image through
// the full sort-last pipeline (or serially with -p 1).
//
//	rendervol -dataset head -p 8 -size 384 -out head.pgm
//	rendervol -dataset engine_high -p 16 -rotx 30 -out e.pgm
package main

import (
	"flag"
	"fmt"
	"os"

	"sortlast/internal/costmodel"
	"sortlast/internal/harness"
	"sortlast/internal/render"
	"sortlast/internal/report"
	"sortlast/internal/trace"
)

var (
	dataset  = flag.String("dataset", "", "built-in dataset (engine_low, engine_high, head, cube; required)")
	p        = flag.Int("p", 8, "number of simulated processors")
	method   = flag.String("method", "bsbrc", "compositing method")
	size     = flag.Int("size", 384, "output image size (square)")
	rotX     = flag.Float64("rotx", 0, "rotation about x (degrees)")
	rotY     = flag.Float64("roty", 0, "rotation about y (degrees)")
	shaded   = flag.Bool("shaded", false, "gradient-based Lambertian shading")
	out      = flag.String("out", "", "output PGM file (required)")
	stats    = flag.Bool("stats", true, "print the compositing-cost summary")
	validate = flag.Bool("validate", false, "check the parallel result against a sequential reference")
	traceOut = flag.String("trace", "", "write a Chrome/Perfetto span trace of the run to this JSON file and print the measured-vs-modeled stage report")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rendervol:", err)
		os.Exit(1)
	}
}

func run() error {
	if *out == "" || *dataset == "" {
		flag.Usage()
		return fmt.Errorf("-dataset and -out are required")
	}
	cfg := harness.Config{
		Dataset: *dataset,
		Width:   *size, Height: *size,
		P: *p, Method: *method,
		RotX: *rotX, RotY: *rotY,
		RenderOpts: render.Options{Shaded: *shaded},
		Validate:   *validate,
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(*p)
		cfg.Trace = rec
	}
	row, img, ranks, err := harness.RunFull(cfg)
	if err != nil {
		return err
	}
	if err := img.WritePGMFile(*out); err != nil {
		return err
	}
	if *stats {
		fmt.Printf("%s %s P=%d %dx%d: render %.1f ms (sample imbalance %.3f), composite (modeled SP2) comp %.2f + comm %.2f = %.2f ms, M_max %d B\n",
			row.Dataset, row.Method, row.P, row.Width, row.Height,
			row.RenderMS, row.RenderImbalance, row.CompMS, row.CommMS, row.TotalMS, row.MMax)
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		werr := rec.Wire("sortlast").WritePerfetto(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace %s: %w", *traceOut, werr)
		}
		fmt.Printf("wrote trace %s (load in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
		fmt.Print(report.MeasuredVsModeled(rec, ranks, costmodel.SP2()))
	}
	if *validate {
		fmt.Printf("validated against sequential reference (max diff %.2g)\n", row.ValidateDiff)
	}
	fmt.Printf("wrote %s (%d non-blank pixels)\n", *out, row.NonBlank)
	return nil
}
