package mpnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// launch starts p ranks in-process over real TCP loopback sockets and
// runs fn on each; it returns the first error.
func launch(t *testing.T, p int, fn func(c mp.Comm) error) error {
	t.Helper()
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, err := Connect(Config{
				Rank: r, Addrs: addrs, Listener: listeners[r],
				DialTimeout: 10 * time.Second,
				Opts:        mp.Options{RecvTimeout: 15 * time.Second},
			})
			if err != nil {
				errs[r] = err
				return
			}
			defer node.Close()
			errs[r] = fn(node.Comm())
			if errs[r] == nil {
				// Quiesce before closing, as Close documents.
				errs[r] = node.Comm().Barrier()
			}
		}(r)
	}
	wg.Wait()
	var all []string
	for r, err := range errs {
		if err != nil {
			all = append(all, fmt.Sprintf("rank %d: %v", r, err))
		}
	}
	if all != nil {
		return fmt.Errorf("%s", all)
	}
	return nil
}

func TestTCPSendRecv(t *testing.T) {
	err := launch(t, 2, func(c mp.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 4, []byte("over tcp"))
		}
		msg, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if string(msg) != "over tcp" {
			return fmt.Errorf("got %q", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectives(t *testing.T) {
	err := launch(t, 4, func(c mp.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		parts, err := c.Gather(0, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r, p := range parts {
				if len(p) != 1 || p[0] != byte(r) {
					return fmt.Errorf("gather slot %d = %v", r, p)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeOrderedMessages(t *testing.T) {
	const n = 30
	err := launch(t, 2, func(c mp.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf := make([]byte, 100*1024)
				for j := range buf {
					buf[j] = byte(i)
				}
				if err := c.Send(1, 1, buf); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			msg, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if len(msg) != 100*1024 || msg[0] != byte(i) || msg[len(msg)-1] != byte(i) {
				return fmt.Errorf("message %d corrupt", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The full sort-last pipeline must work unchanged over TCP — the
// distributed-memory deployment the paper targets.
func TestTCPFullPipeline(t *testing.T) {
	vol := volume.EngineBlock(32, 32, 16)
	tf := transfer.EngineLow()
	const p = 4
	cam := render.NewCamera(48, 48, vol.Bounds(), 20, 30)
	serial := render.Raycast(vol, vol.Bounds(), cam, tf, render.Options{EarlyTermination: -1})
	dec, err := partition.Decompose(vol.Bounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var final *frame.Image
	err = launch(t, p, func(c mp.Comm) error {
		img := render.Raycast(vol, dec.Box(c.Rank()), cam, tf,
			render.Options{EarlyTermination: -1})
		comp, err := core.New("bsbrc")
		if err != nil {
			return err
		}
		res, err := comp.Composite(c, dec, cam.Dir, img)
		if err != nil {
			return err
		}
		out, err := core.GatherImage(c, 0, res)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			final = out
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := serial.MaxAbsDiff(final, serial.Full()); d > 1e-9 {
		t.Errorf("TCP pipeline image differs from serial by %g", d)
	}
}

func TestConnectValidation(t *testing.T) {
	if _, err := Connect(Config{Rank: 0, Addrs: nil}); err == nil {
		t.Error("empty address list must fail")
	}
	if _, err := Connect(Config{Rank: 2, Addrs: []string{"a", "b"}}); err == nil {
		t.Error("out-of-range rank must fail")
	}
}

func TestSingleRankWorld(t *testing.T) {
	node, err := Connect(Config{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c := node.Comm()
	if c.Size() != 1 {
		t.Error("size must be 1")
	}
	if err := c.Barrier(); err != nil {
		t.Error(err)
	}
}

func TestDialTimeoutFailsFast(t *testing.T) {
	// Rank 1 dials rank 0, which never listens.
	start := time.Now()
	_, err := Connect(Config{
		Rank:        1,
		Addrs:       []string{"127.0.0.1:1", "127.0.0.1:0"},
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("expected dial failure")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("dial failure took too long")
	}
}

func TestPeerDisconnectFailsPendingRecv(t *testing.T) {
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var wg sync.WaitGroup
	var recvErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		node, err := Connect(Config{Rank: 0, Addrs: addrs, Listener: listeners[0],
			Opts: mp.Options{RecvTimeout: 10 * time.Second}})
		if err != nil {
			recvErr = err
			return
		}
		defer node.Close()
		_, recvErr = node.Comm().Recv(1, 0) // peer will vanish
	}()
	go func() {
		defer wg.Done()
		node, err := Connect(Config{Rank: 1, Addrs: addrs, Listener: listeners[1]})
		if err != nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
		node.Close()
	}()
	wg.Wait()
	if recvErr == nil {
		t.Error("pending recv must fail when the peer disconnects")
	}
}

// A TCP round trip on a standing pair of ranks — a send each way, each
// received buffer released — allocates nothing once warm: the frame
// header and writev vector live on the connection, each read loop has
// one header array, payloads come from the receive pool, and the pool
// reuses the boxes it files released buffers in. (Ten when a send built
// its header and vector on the heap and a read its header; two while
// every release boxed its buffer anew.) Under the race detector, whose
// sync.Pools drop items at random, up to two are allowed.
func TestTCPRoundTripAllocs(t *testing.T) {
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var nodes [2]*Node
	errs := make(chan error, 2)
	for r := range nodes {
		go func(r int) {
			var err error
			nodes[r], err = Connect(Config{Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
			errs <- err
		}(r)
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer nodes[0].Close()
	defer nodes[1].Close()
	payload := make([]byte, 4<<10)
	roundTrip := func() {
		for _, hop := range [][2]int{{0, 1}, {1, 0}} {
			if err := nodes[hop[0]].tr.Send(hop[1], 7, payload); err != nil {
				t.Fatal(err)
			}
			got, err := nodes[hop[1]].tr.Recv(hop[0], 7, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			mp.Release(got)
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	want := 0.0
	if raceEnabled {
		want = 2
	}
	if n := testing.AllocsPerRun(200, roundTrip); n > want {
		t.Errorf("%g allocations per round trip, want at most %g", n, want)
	}
}
