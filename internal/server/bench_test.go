package server_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortlast/internal/server"
)

// BenchmarkServeClosedLoop is the pipelining trial EXPERIMENTS "Feature
// census III (PR 24)" quotes: 8 callers in a closed loop against one
// server, each cycling 8 cameras, with MaxInFlight K = 1 (one frame in
// the rank pool at a time) against the default K = 2 (one rendering
// while one composites). It reports served frames/s and the
// caller-observed p50. Regenerate with
//
//	go test -run xxx -bench ServeClosedLoop -benchtime 3s ./internal/server
func BenchmarkServeClosedLoop(b *testing.B) {
	const callers = 8
	cells := []struct {
		dataset string
		size, p int
	}{
		{"head", 256, 2},
		{"engine_high", 384, 8},
		{"cube", 128, 4},
	}
	for _, c := range cells {
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s_%d_P%d/K=%d", c.dataset, c.size, c.p, k), func(b *testing.B) {
				_, cl := startServer(b, server.Config{P: c.p, MaxInFlight: k})
				render := func(i int) {
					req := server.Request{Dataset: c.dataset, Width: c.size, Height: c.size, RotY: float64(i % 8 * 10)}
					if _, err := cl.Render(context.Background(), req); err != nil {
						b.Error(err)
					}
				}
				render(0) // generate the dataset outside the timed loop

				lat := make([]time.Duration, b.N)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < callers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
							t0 := time.Now()
							render(i)
							lat[i] = time.Since(t0)
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
				b.ReportMetric(float64(lat[b.N/2])/1e6, "p50-ms")
			})
		}
	}
}
