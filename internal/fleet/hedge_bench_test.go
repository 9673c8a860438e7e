package fleet_test

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/faultinject"
	"sortlast/internal/fleet"
	"sortlast/internal/server"
)

// BenchmarkHedging is the hedging trial EXPERIMENTS ("One account per
// request") quotes. A gateway fronts two in-process replicas (head 256²,
// P=2, server defaults) with the frame cache off; 4 closed-loop callers,
// each on its own cameras, run for 6 s per cell, every request carrying
// a 2 s deadline. Phases: healthy; replica 0 slowed by a seeded delay
// schedule (1 % of its sends wait up to 500 ms); replica 0 stalled 2 s
// into the window (every transport operation of its rank 1 blocks 30 s,
// under the default 60 s frame watchdog). Arms: "on" runs the gateway's
// defaults, "off" sets HedgeMin above the request deadline, so a warm
// replica is never hedged. Each cell first warms both replicas' latency
// windows past the cold-start sample count. It reports the delivered
// p50 and p99, goodput (frames delivered per second), hedges per 100
// requests (each one a duplicate render) and failed requests.
// Regenerate with
//
//	go test -run xxx -bench Hedging -benchtime 1x ./internal/fleet
func BenchmarkHedging(b *testing.B) {
	arms := []struct {
		name     string
		hedgeMin time.Duration
	}{{"on", 0}, {"off", time.Minute}}
	for _, phase := range []string{"healthy", "slowed", "stalled"} {
		for _, arm := range arms {
			b.Run(phase+"/"+arm.name, func(b *testing.B) { hedgingCell(b, phase, arm.hedgeMin) })
		}
	}
}

func hedgingCell(b *testing.B, phase string, hedgeMin time.Duration) {
	const (
		callers  = 4
		window   = 6 * time.Second
		deadline = 2 * time.Second
		warm     = 32 // frames per replica, past the 16-sample cold start
	)
	chaos := faultinject.Config{Seed: 1}
	if phase == "slowed" {
		chaos.DelayProb, chaos.MaxDelay = 0.01, 500*time.Millisecond
	}
	inj := faultinject.New(chaos)
	g, err := fleet.Start(fleet.Config{
		Addr: "127.0.0.1:0",
		Replicas: []fleet.ReplicaConfig{
			{Server: &server.Config{P: 2, Chaos: inj}},
			{Server: &server.Config{P: 2}},
		},
		CacheBytes: -1,
		HedgeMin:   hedgeMin,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl := client.New(g.Addr().String())
	defer func() {
		cl.Close()
		inj.EndWorld() // release a stalled rank so shutdown does not wait on it
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()

	// loop runs the callers until stop closes; it returns the delivered
	// latencies and how many requests were sent and failed.
	loop := func(stop <-chan struct{}) (lat []time.Duration, sent, failed int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					req := server.Request{Dataset: "head", Width: 256, Height: 256,
						RotY: float64(c*90 + i%45*2), DeadlineMS: deadline.Milliseconds()}
					ctx, cancel := context.WithTimeout(context.Background(), deadline+time.Second)
					t0 := time.Now()
					_, err := cl.Render(ctx, req)
					d := time.Since(t0)
					cancel()
					mu.Lock()
					sent++
					if err != nil {
						failed++
					} else {
						lat = append(lat, d)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return lat, sent, failed
	}

	warmed := make(chan struct{})
	go func() {
		defer close(warmed)
		for {
			st := g.Stats()
			if st.Replicas[0].Frames >= warm && st.Replicas[1].Frames >= warm {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	loop(warmed)

	base := g.Stats()
	stop := make(chan struct{})
	time.AfterFunc(window, func() { close(stop) })
	if phase == "stalled" {
		time.AfterFunc(window/3, func() { inj.Stall(1, 30*time.Second) })
	}
	lat, sent, failed := loop(stop)
	hedges := g.Stats().HedgesIssued - base.HedgesIssued

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(q float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		return float64(lat[int(q*float64(len(lat)-1))]) / 1e6
	}
	b.ReportMetric(pct(.5), "p50-ms")
	b.ReportMetric(pct(.99), "p99-ms")
	b.ReportMetric(float64(len(lat))/window.Seconds(), "goodput/s")
	b.ReportMetric(100*float64(hedges)/float64(sent), "hedges/100req")
	b.ReportMetric(float64(failed), "failed")
}
