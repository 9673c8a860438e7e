// Load-balancing study (paper §5 future work): with an uneven volume,
// midpoint partitioning leaves some ranks nearly idle during rendering.
// This example compares the uniform and work-median decompositions of
// the engine dataset — per-rank estimated work, measured render time,
// and the exact per-rank ray-sample imbalance (slowest rank's samples ÷
// the mean) — and verifies the balanced partition still composites
// correctly.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"sortlast/internal/harness"
	"sortlast/internal/partition"
	"sortlast/internal/volume"
)

func main() {
	const p = 8
	vol, _, err := harness.Dataset("engine_high")
	if err != nil {
		log.Fatal(err)
	}
	est := volume.VoxelWork{Vol: vol, Threshold: 20}

	fmt.Println("engine_high, P=8 — estimated per-rank rendering work")
	uniform, err := partition.Decompose(vol.Bounds(), p)
	if err != nil {
		log.Fatal(err)
	}
	weighted, err := partition.DecomposeWeighted(vol.Bounds(), p, est)
	if err != nil {
		log.Fatal(err)
	}
	for name, dec := range map[string]*partition.Decomposition{
		"uniform (midpoint)": uniform, "weighted (work median)": weighted,
	} {
		min, max := ^uint64(0), uint64(0)
		for r := 0; r < p; r++ {
			w := est.BoxWork(dec.Box(r))
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		fmt.Printf("  %-24s max/min work imbalance: %.2f\n", name, float64(max)/float64(min))
	}

	for _, balanced := range []bool{false, true} {
		cfg := harness.Config{
			Dataset: "engine_high",
			Width:   384, Height: 384,
			P: p, Method: "bsbrc",
			RotX: 20, RotY: 30,
			BalanceRender: balanced,
			Validate:      true,
		}
		row, rs, err := harness.RunDetailed(cfg)
		if err != nil {
			log.Fatal(err)
		}
		label := "uniform"
		if balanced {
			label = "balanced"
		}
		fmt.Printf("\n%s partition: render %.1f ms (slowest rank), composite %.2f ms modeled, validated (diff %.1g)\n",
			label, row.RenderMS, row.TotalMS, row.ValidateDiff)
		maxSamples, sum := 0, 0
		for _, r := range rs {
			sum += r.Render.Samples
			maxSamples = max(maxSamples, r.Render.Samples)
		}
		fmt.Printf("  ray samples per rank: max %d ÷ mean %.0f = %.3f\n",
			maxSamples, float64(sum)/p, float64(maxSamples)*p/float64(sum))
	}
}
