// Command animate renders an orbit animation through the parallel
// pipeline — the interactive-exploration use case that motivates the
// paper's §1 ("it is important for users to interactively explore the
// volume data in real time") — writing one PGM per frame plus a CSV of
// per-frame compositing stats, which shows how viewpoint rotation moves
// the compositing cost (the §3.2 effect) over a whole orbit.
//
//	animate -dataset engine_high -p 16 -frames 12 -outdir frames/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sortlast/internal/harness"
	"sortlast/internal/report"
)

var (
	dataset = flag.String("dataset", "engine_high", "built-in dataset")
	p       = flag.Int("p", 8, "number of simulated processors")
	method  = flag.String("method", "bsbrc", "compositing method")
	size    = flag.Int("size", 384, "image size (square)")
	frames  = flag.Int("frames", 12, "frames in the orbit")
	tiltDeg = flag.Float64("tilt", 20, "constant tilt about x (degrees)")
	outdir  = flag.String("outdir", "", "output directory (required)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "animate:", err)
		os.Exit(1)
	}
}

func run() error {
	if *outdir == "" {
		flag.Usage()
		return fmt.Errorf("-outdir is required")
	}
	if *frames < 1 {
		return fmt.Errorf("-frames must be positive")
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	var rows []harness.Row
	for f := 0; f < *frames; f++ {
		roty := 360 * float64(f) / float64(*frames)
		row, img, err := harness.RunWithImage(harness.Config{
			Dataset: *dataset,
			Width:   *size, Height: *size,
			P: *p, Method: *method,
			RotX: *tiltDeg, RotY: roty,
		})
		if err != nil {
			return fmt.Errorf("frame %d: %w", f, err)
		}
		path := filepath.Join(*outdir, fmt.Sprintf("frame_%03d.pgm", f))
		if err := img.WritePGMFile(path); err != nil {
			return err
		}
		rows = append(rows, *row)
		fmt.Printf("frame %3d (rotY %5.1f): composite %6.2f ms modeled, M_max %7d B, %d empty rects\n",
			f, roty, row.TotalMS, row.MMax, row.EmptyRects)
	}
	csvPath := filepath.Join(*outdir, "stats.csv")
	if err := os.WriteFile(csvPath, []byte(report.CSV(rows)), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d frames and %s\n", *frames, csvPath)
	return nil
}
