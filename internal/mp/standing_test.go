package mp_test

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sortlast/internal/mp"
	"sortlast/internal/mpnet"
)

// loopbackPair runs fn on the two ranks of an mpnet world over TCP
// sockets on 127.0.0.1.
func loopbackPair(opts mp.Options, fn func(c mp.Comm) error) error {
	var listeners [2]net.Listener
	var addrs [2]string
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	var errs [2]error
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, err := mpnet.Connect(mpnet.Config{Rank: r, Addrs: addrs[:], Listener: listeners[r],
				DialTimeout: 10 * time.Second, Opts: opts})
			if err != nil {
				errs[r] = err
				return
			}
			defer node.Close()
			errs[r] = fn(node.Comm())
		}(r)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// A standing world must hold nothing per message it has carried: the
// live heap after 20,000 round trips is the live heap after 1,000. Two
// 48-byte records per round trip on each rank would grow it by 3.6 MB.
func TestStandingWorldHeapIsFlat(t *testing.T) {
	const trips, warm, slack = 20000, 1000, 256 << 10
	opts := mp.Options{RecvTimeout: 20 * time.Second}
	worlds := []struct {
		name string
		run  func(fn func(c mp.Comm) error) error
	}{
		{"mp", func(fn func(c mp.Comm) error) error { return mp.Run(2, opts, fn) }},
		{"mpnet", func(fn func(c mp.Comm) error) error { return loopbackPair(opts, fn) }},
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			var warmed, end uint64
			err := w.run(func(c mp.Comm) error {
				payload := make([]byte, 64)
				for i := 0; i < trips; i++ {
					if i == warm && c.Rank() == 0 {
						warmed = liveHeap()
					}
					msg, err := c.Sendrecv(c.Rank()^1, 1, payload)
					if err != nil {
						return err
					}
					mp.Release(msg)
				}
				if c.Rank() == 0 {
					end = liveHeap()
				}
				return c.Barrier() // rank 1 stays in the world while rank 0 reads
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("live heap %d B after %d round trips, %d B after %d", warmed, warm, end, trips)
			if end > warmed+slack {
				t.Errorf("live heap grew %d B between round trip %d and %d (allowed %d)",
					end-warmed, warm, trips, slack)
			}
		})
	}
}
