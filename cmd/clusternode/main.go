// Command clusternode runs one rank of the sort-last pipeline over TCP,
// so the system runs as a real distributed program — one OS process per
// rank, as the paper's SP2 jobs did. Every rank is started with the same
// address list and its own -rank:
//
//	clusternode -rank 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 -dataset cube -out cube.pgm &
//	clusternode -rank 1 -addrs 127.0.0.1:7000,127.0.0.1:7001 -dataset cube
//
// The procedural datasets are deterministic, so every process generates
// an identical volume: the partitioning phase is a box assignment, no
// voxels cross the sockets.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/mpnet"
)

var (
	rank    = flag.Int("rank", -1, "this process's rank (required)")
	addrs   = flag.String("addrs", "", "comma-separated listen addresses, one per rank (required)")
	dataset = flag.String("dataset", "cube", "built-in dataset")
	method  = flag.String("method", "bsbrc", "compositing method (bs, bsbr, bslc, bsbrc, direct, ds, dfb); each runs at any rank count")
	size    = flag.Int("size", 384, "image size (square)")
	rotX    = flag.Float64("rotx", 0, "rotation about x (degrees)")
	rotY    = flag.Float64("roty", 0, "rotation about y (degrees)")
	out     = flag.String("out", "", "PGM output path (rank 0 only)")
	timeout = flag.Duration("timeout", 60*time.Second, "dial and receive timeout")
)

func main() {
	flag.Parse()
	list, err := validateFlags()
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusternode: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(list); err != nil {
		fmt.Fprintf(os.Stderr, "clusternode[rank %d]: %v\n", *rank, err)
		os.Exit(1)
	}
}

// validateFlags checks every flag up front so misconfiguration is a
// usage error (exit 2), not a panic mid-pipeline or a hang in dial.
func validateFlags() ([]string, error) {
	if *addrs == "" {
		return nil, fmt.Errorf("-addrs is required (comma-separated, one address per rank)")
	}
	list := strings.Split(*addrs, ",")
	for i, a := range list {
		if strings.TrimSpace(a) == "" {
			return nil, fmt.Errorf("-addrs entry %d is empty", i)
		}
	}
	if *rank < 0 || *rank >= len(list) {
		return nil, fmt.Errorf("-rank %d out of range [0,%d)", *rank, len(list))
	}
	if _, err := core.New(*method); err != nil {
		return nil, fmt.Errorf("-method: %w", err)
	}
	if !harness.KnownDataset(*dataset) {
		return nil, fmt.Errorf("unknown -dataset %q (have %v)", *dataset, harness.Datasets())
	}
	if *size <= 0 {
		return nil, fmt.Errorf("-size %d must be positive", *size)
	}
	if *timeout <= 0 {
		return nil, fmt.Errorf("-timeout %v must be positive", *timeout)
	}
	return list, nil
}

func run(list []string) error {
	cfg := harness.Config{
		Dataset: *dataset, Method: *method, P: len(list),
		Width: *size, Height: *size,
		RotX: *rotX, RotY: *rotY,
	}
	// The plan is the one the in-process harness runs: kd decomposition
	// at power-of-two world sizes, the fold plan otherwise.
	plan, err := harness.NewPlan(cfg)
	if err != nil {
		return err
	}

	node, err := mpnet.Connect(mpnet.Config{
		Rank:        *rank,
		Addrs:       list,
		DialTimeout: *timeout,
		Opts:        mp.Options{RecvTimeout: *timeout},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	c := node.Comm()

	start := time.Now()
	img := plan.RenderRank(c.Rank())
	renderTime := time.Since(start)

	if err := c.Barrier(); err != nil {
		return err
	}
	final, rs, err := plan.Frame(c, img, new(harness.Tally))
	if err != nil {
		return err
	}
	fmt.Printf("rank %d/%d: render %v, composited %d px, received %d B\n",
		c.Rank(), c.Size(), renderTime.Round(time.Millisecond),
		rs.TotalComposited(), rs.BytesReceived())
	if c.Rank() == 0 && *out != "" {
		if err := final.WritePGMFile(*out); err != nil {
			return err
		}
		fmt.Printf("rank 0: wrote %s\n", *out)
	}
	// Quiesce (no peer still expects traffic from this rank), then close.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	return node.Shutdown(ctx)
}
