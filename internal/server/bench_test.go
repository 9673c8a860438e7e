package server_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/server"
)

// BenchmarkServeClosedLoop is the pipelining trial EXPERIMENTS "Feature
// census III (PR 24)" quotes: 8 callers in a closed loop against one
// server, each cycling 8 cameras, with MaxInFlight K = 1 (one frame in
// the rank pool at a time) against the default K = 2 (one rendering
// while one composites). It reports served frames/s, the
// caller-observed p50 and what a frame allocates in the process, caller
// included (B/op, allocs/op). Regenerate with
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
				b.ReportAllocs()
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

// ladderRequest is the admission trial's request i: head 256², one of 8
// cameras.
func ladderRequest(i int) server.Request {
	return server.Request{Dataset: "head", Width: 256, Height: 256, RotY: float64(i % 8 * 10)}
}

// ladderArms are the admission trial's three ways to ask for a frame
// under overload; each returns the delivered frame and how many
// requests it sent. "on" is the server-side ladder (DegradeOK);
// "off-once" re-asks for a preview once when the full request is
// bounced; "off-poll" then keeps re-asking at the server's own
// degradePoll cadence until its deadline.
var ladderArms = []struct {
	name string
	ask  func(ctx context.Context, cl *client.Client, req server.Request) (*client.Frame, int, error)
}{
	{"on", func(ctx context.Context, cl *client.Client, req server.Request) (*client.Frame, int, error) {
		req.DegradeOK = true
		f, err := cl.Render(ctx, req)
		return f, 1, err
	}},
	{"off-once", func(ctx context.Context, cl *client.Client, req server.Request) (*client.Frame, int, error) {
		f, err := cl.Render(ctx, req)
		if !errors.Is(err, client.ErrOverloaded) {
			return f, 1, err
		}
		req.Quality = server.QualityPreview
		f, err = cl.Render(ctx, req)
		return f, 2, err
	}},
	{"off-poll", func(ctx context.Context, cl *client.Client, req server.Request) (*client.Frame, int, error) {
		f, err := cl.Render(ctx, req)
		req.Quality = server.QualityPreview
		asks := 1
		for ; errors.Is(err, client.ErrOverloaded); asks++ {
			if asks > 1 {
				select {
				case <-ctx.Done():
					return nil, asks, ctx.Err()
				case <-time.After(2 * time.Millisecond):
				}
			}
			f, err = cl.Render(ctx, req)
		}
		return f, asks, err
	}},
}

// BenchmarkAdmissionLadder is the DegradeOK trial EXPERIMENTS "Feature
// census V (PR 27)" quotes. A server (head 256², P=2, default queue
// depth and MaxInFlight) is first measured for capacity: full frames/s
// under 8 closed-loop callers. Each cell then offers open-loop arrivals
// at fixed intervals, at 1.5× or 3× that capacity for 6 s, every
// request carrying a deadline of 500 ms or 1 s from its intended send
// time, to a fresh server under one arm of ladderArms. It reports
// goodput (frames delivered by their deadline, per second of
// arrivals), its full/preview split, the p99 of the delivered frames
// and the client's extra requests. Regenerate with
//
//	go test -run xxx -bench AdmissionLadder -benchtime 1x ./internal/server
func BenchmarkAdmissionLadder(b *testing.B) {
	const window = 6 * time.Second
	capacity := ladderCapacity(b)
	b.Logf("capacity %.1f full frames/s", capacity)
	for _, load := range []float64{1.5, 3} {
		for _, deadline := range []time.Duration{500 * time.Millisecond, time.Second} {
			for _, arm := range ladderArms {
				b.Run(fmt.Sprintf("%gx_%v/%s", load, deadline, arm.name), func(b *testing.B) {
					srv, _ := startServer(b, server.Config{P: 2})
					// Pooled wide enough that polling callers reuse
					// connections instead of dialing one per request.
					cl := client.NewPooled(srv.Addr().String(), 512)
					defer cl.Close()
					if _, err := cl.Render(context.Background(), ladderRequest(0)); err != nil {
						b.Fatal(err)
					}

					interval := time.Duration(float64(time.Second) / (load * capacity))
					var (
						mu                   sync.Mutex
						lat                  []time.Duration
						full, preview, extra int
						wg                   sync.WaitGroup
					)
					start := time.Now()
					for i := 0; i < int(window/interval); i++ {
						at := start.Add(time.Duration(i) * interval)
						time.Sleep(time.Until(at))
						wg.Add(1)
						go func() {
							defer wg.Done()
							ctx, cancel := context.WithDeadline(context.Background(), at.Add(deadline))
							defer cancel()
							f, asks, err := arm.ask(ctx, cl, ladderRequest(i))
							d := time.Since(at)
							mu.Lock()
							defer mu.Unlock()
							extra += asks - 1
							if err != nil || d > deadline {
								return
							}
							lat = append(lat, d)
							if f.Stats.Quality == server.QualityPreview {
								preview++
							} else {
								full++
							}
						}()
					}
					wg.Wait()
					sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
					var p99 time.Duration
					if len(lat) > 0 {
						p99 = lat[len(lat)*99/100]
					}
					b.ReportMetric(float64(full+preview)/window.Seconds(), "goodput/s")
					b.ReportMetric(float64(full)/window.Seconds(), "full/s")
					b.ReportMetric(float64(preview)/window.Seconds(), "preview/s")
					b.ReportMetric(float64(p99)/1e6, "p99-ms")
					b.ReportMetric(float64(extra), "extra-req")
				})
			}
		}
	}
}

// ladderCapacity measures the full frames/s of a default head 256² P=2
// server under 8 closed-loop callers for 3 s.
func ladderCapacity(b *testing.B) float64 {
	_, cl := startServer(b, server.Config{P: 2})
	if _, err := cl.Render(context.Background(), ladderRequest(0)); err != nil {
		b.Fatal(err)
	}
	var frames atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(3 * time.Second)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; time.Now().Before(end); i += 8 {
				if _, err := cl.Render(context.Background(), ladderRequest(i)); err != nil {
					b.Error(err)
					return
				}
				frames.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(frames.Load()) / time.Since(start).Seconds()
}
