// Surface rendering (paper §1 lists surface rendering via marching
// cubes as the other rendering path of a sort-last system; §2's
// Ahrens–Painter compositing was designed for it). This example extracts
// the head phantom's skull isosurface with marching tetrahedra,
// rasterizes it in parallel, composites with BSBRC, and then shows why
// encoding choice depends on image type: value-based RLE compresses
// flat-shaded surface images well but degenerates on float volume
// images — §3.3's argument, measured in both directions.
//
//	go run ./examples/surface
package main

import (
	"fmt"
	"log"

	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/render"
)

func main() {
	const p = 8
	base := harness.Config{
		Dataset: "head",
		Width:   384, Height: 384,
		P: p, Method: "bsbrc",
		RotX: 20, RotY: 30,
		Surface:    true,
		IsoLevel:   160, // skull density
		RasterOpts: render.RasterOptions{Flat: true, Levels: 12},
		Validate:   true,
	}
	row, img, err := harness.RunWithImage(base)
	if err != nil {
		log.Fatal(err)
	}
	if err := img.WritePGMFile("skull.pgm"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skull isosurface on %d ranks: %d surface pixels, composite %.2f ms modeled, validated\n",
		p, row.NonBlank, row.TotalMS)
	fmt.Println("wrote skull.pgm")

	// Encoding comparison on the two image types.
	fmt.Println("\nvalue-RLE compression by image type (runs per non-blank pixel; lower is better):")
	for _, mode := range []struct {
		name    string
		surface bool
	}{{"surface (flat-shaded)", true}, {"volume (ray-cast)", false}} {
		cfg := base
		cfg.Surface = mode.surface
		cfg.Validate = false
		_, im, err := harness.RunWithImage(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %.3f\n", mode.name, valueRunsPerPixel(im))
	}
	fmt.Println("\nValue runs repeat on flat-shaded surfaces but almost never on float")
	fmt.Println("volume pixels — why BSLC/BSBRC encode blank/non-blank state instead.")
}

func valueRunsPerPixel(img *frame.Image) float64 {
	// A value run starts wherever a pixel differs from its row-major
	// predecessor.
	px := img.PackRegion(img.Full())
	nonBlankRuns := 0
	for i, p := range px {
		if !p.Blank() && (i == 0 || p != px[i-1]) {
			nonBlankRuns++
		}
	}
	nb := img.CountNonBlank(img.Full())
	if nb == 0 {
		return 0
	}
	return float64(nonBlankRuns) / float64(nb)
}
