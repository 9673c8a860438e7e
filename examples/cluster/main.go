// Cluster example: run the pipeline as four ranks over real TCP loopback
// sockets — the same code path cmd/clusternode uses across machines —
// and verify the distributed image matches a serial rendering.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/mpnet"
	"sortlast/internal/render"
)

func main() {
	const p = 4
	plan, err := harness.NewPlan(harness.Config{
		Dataset: "head", Method: "bsbrc", P: p,
		Width: 256, Height: 256, RotX: 15, RotY: 30,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bind one loopback listener per rank so the address list is known
	// before any rank starts (a multi-machine run would use a hostfile).
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fmt.Println("ranks:", addrs)

	const timeout = 30 * time.Second
	var wg sync.WaitGroup
	var final *frame.Image
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				node, err := mpnet.Connect(mpnet.Config{
					Rank: r, Addrs: addrs, Listener: listeners[r],
					Opts: mp.Options{RecvTimeout: timeout},
				})
				if err != nil {
					return err
				}
				defer node.Close()
				c := node.Comm()

				res, err := plan.CompositeRank(c, plan.RenderRank(r))
				if err != nil {
					return err
				}
				fmt.Printf("rank %d: composited %d px, received %d bytes over TCP\n",
					r, res.Stats.TotalComposited(), res.Stats.BytesReceived())
				out, err := plan.GatherRank(c, res)
				if err != nil {
					return err
				}
				if r == 0 {
					final = out
				}
				// Quiesce (no peer still expects traffic), then close.
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				return node.Shutdown(ctx)
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}

	serial := render.Raycast(plan.Vol, plan.Vol.Bounds(), plan.Cam, plan.TF, render.Options{})
	if d := serial.MaxAbsDiff(final, serial.Full()); d > 2e-3 {
		log.Fatalf("distributed image differs from serial by %g", d)
	}
	if err := final.WritePGMFile("cluster.pgm"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("distributed image matches serial rendering; wrote cluster.pgm")
}
