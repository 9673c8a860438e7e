package client

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sortlast/internal/server"
)

// stubServer answers each request on a connection with the scripted
// reply codes in order; "" means a successful 1x1 frame.
func stubServer(t *testing.T, codes []string) (addr string, requests *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	requests = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					var req server.Request
					if err := server.ReadJSON(conn, server.MaxRequestFrame, &req); err != nil {
						return
					}
					n := int(requests.Add(1)) - 1
					code := ""
					if n < len(codes) {
						code = codes[n]
					}
					if code == "" {
						server.WriteJSON(conn, server.Response{OK: true, Width: 1, Height: 1})
						server.WriteFrame(conn, []byte{200})
						continue
					}
					server.WriteJSON(conn, server.Response{Code: code, Error: "scripted"})
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), requests
}

func TestRetryableErrorsRecover(t *testing.T) {
	addr, requests := stubServer(t, []string{server.CodeOverloaded, server.CodeWorldFailed, ""})
	c := New(addr)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := c.Render(ctx, server.Request{Dataset: "cube", Width: 1, Height: 1})
	if err != nil {
		t.Fatalf("Render with retries = %v", err)
	}
	if f.At(0, 0) != 200 {
		t.Errorf("frame pixel = %d, want 200", f.At(0, 0))
	}
	if n := requests.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3 (two retries)", n)
	}
}

// Without a retry policy the first typed error surfaces immediately.
func TestNoRetryByDefault(t *testing.T) {
	addr, requests := stubServer(t, []string{server.CodeWorldFailed, ""})
	c := New(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Render(ctx, server.Request{}); !errors.Is(err, ErrWorldFailed) {
		t.Fatalf("Render = %v, want ErrWorldFailed", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("server saw %d requests, want 1", n)
	}
}

// Non-retryable codes are never retried even with a policy.
func TestBadRequestNotRetried(t *testing.T) {
	addr, requests := stubServer(t, []string{server.CodeBadRequest, ""})
	c := New(addr)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Render(ctx, server.Request{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Render = %v, want ErrBadRequest", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("server saw %d requests, want 1 (no retries)", n)
	}
}

// The retry budget honors the context deadline: backoffs never sleep
// past it, and the last typed error is returned rather than a bare
// deadline error.
func TestRetryHonorsDeadline(t *testing.T) {
	codes := make([]string, 1000)
	for i := range codes {
		codes[i] = server.CodeOverloaded
	}
	addr, _ := stubServer(t, codes)
	c := New(addr)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1000, BaseBackoff: 40 * time.Millisecond, MaxBackoff: 40 * time.Millisecond})
	defer c.Close()
	const budget = 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err := c.Render(ctx, server.Request{})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Render = %v, want the last typed ErrOverloaded", err)
	}
	if elapsed > budget+150*time.Millisecond {
		t.Errorf("Render took %v for a %v budget: a backoff slept past the deadline", elapsed, budget)
	}
}

// A connection closed by a restarted server while pooled must be
// detected at checkout (health-check probe) and replaced with a fresh
// dial, instead of surfacing a first-byte error to the caller.
func TestCheckoutDropsDeadIdleConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	conns := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conns <- conn
			go func(conn net.Conn) {
				for {
					var req server.Request
					if err := server.ReadJSON(conn, server.MaxRequestFrame, &req); err != nil {
						return
					}
					server.WriteJSON(conn, server.Response{OK: true, Width: 1, Height: 1})
					server.WriteFrame(conn, []byte{200})
				}
			}(conn)
		}
	}()

	c := New(ln.Addr().String())
	c.probeAfter = 0 // probe on every checkout, regardless of idle age
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Render(ctx, server.Request{Width: 1, Height: 1}); err != nil {
		t.Fatalf("first Render: %v", err)
	}

	// "Restart" the server: the pooled connection's peer goes away.
drain:
	for {
		select {
		case conn := <-conns:
			conn.Close()
		default:
			break drain
		}
	}
	// Let the FIN reach the client socket so the probe sees EOF rather
	// than racing it.
	time.Sleep(20 * time.Millisecond)

	if _, err := c.Render(ctx, server.Request{Width: 1, Height: 1}); err != nil {
		t.Fatalf("Render after server restart: %v (dead idle conn not dropped at checkout)", err)
	}
	if n := accepted.Load(); n != 2 {
		t.Errorf("server accepted %d connections, want 2 (one fresh dial after the restart)", n)
	}
}

// fakeConn is a net.Conn whose SetDeadline fails, as a torn-down TCP
// connection's does.
type fakeConn struct {
	net.Conn
	closed      atomic.Bool
	deadlineErr error
}

func (f *fakeConn) SetDeadline(time.Time) error { return f.deadlineErr }
func (f *fakeConn) Close() error                { f.closed.Store(true); return nil }

// release must not return a connection whose deadline could not be
// cleared to the idle pool: a later Render would inherit a stale
// deadline or a dead stream.
func TestReleaseDropsPoisonedConn(t *testing.T) {
	c := New("127.0.0.1:0")
	bad := &fakeConn{deadlineErr: errors.New("use of closed network connection")}
	c.release(bad)
	if !bad.closed.Load() {
		t.Error("poisoned connection was not closed")
	}
	select {
	case conn := <-c.idle:
		t.Errorf("poisoned connection %v returned to the idle pool", conn)
	default:
	}

	good := &fakeConn{}
	c.release(good)
	if good.closed.Load() {
		t.Error("healthy connection was closed instead of pooled")
	}
	select {
	case <-c.idle:
	default:
		t.Error("healthy connection missing from the idle pool")
	}
}

// recordingServer answers every request with a 1x1 frame and reports
// each request's shipped DeadlineMS.
func recordingServer(t *testing.T) (addr string, deadlines chan int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	deadlines = make(chan int64, 256)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					var req server.Request
					if err := server.ReadJSON(conn, server.MaxRequestFrame, &req); err != nil {
						return
					}
					deadlines <- req.DeadlineMS
					server.WriteJSON(conn, server.Response{OK: true, Width: 1, Height: 1})
					server.WriteFrame(conn, []byte{200})
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), deadlines
}

// A sub-millisecond context budget must ship DeadlineMS=1, not 0:
// Milliseconds truncates toward zero, and the old code's DeadlineMS=0
// made the server substitute its 30s default — the tightest client
// deadline became the laxest server one. The request itself may or may
// not complete within 900µs, so the test retries until one lands on the
// wire and then checks what was shipped.
func TestSubMillisecondDeadlineShipsFloor(t *testing.T) {
	addr, deadlines := recordingServer(t)
	c := New(addr)
	defer c.Close()
	for attempt := 0; attempt < 200; attempt++ {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(900*time.Microsecond))
		c.Render(ctx, server.Request{})
		cancel()
		select {
		case ms := <-deadlines:
			if ms != 1 {
				t.Fatalf("sub-millisecond budget shipped DeadlineMS=%d, want the 1ms floor", ms)
			}
			return
		default:
		}
	}
	t.Fatal("no request reached the wire in 200 sub-millisecond attempts")
}

// An already-expired context fails locally without dialing, and a
// normal context budget still ships its (truncated) remaining time.
func TestDeadlinePropagation(t *testing.T) {
	addr, deadlines := recordingServer(t)
	c := New(addr)
	defer c.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := c.Render(ctx, server.Request{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired budget: Render = %v, want context.DeadlineExceeded", err)
	}
	select {
	case ms := <-deadlines:
		t.Fatalf("expired budget still shipped a request (DeadlineMS=%d)", ms)
	default:
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, err := c.Render(ctx2, server.Request{Width: 1, Height: 1, DeadlineMS: 60000}); err != nil {
		t.Fatal(err)
	}
	ms := <-deadlines
	if ms < 1000 || ms > 30000 {
		t.Errorf("30s budget with a 60s request deadline shipped DeadlineMS=%d, want the sooner context budget", ms)
	}
}

// The reply header bounds the pixel frame: a peer that declares more
// pixels than the request asked for, or follows an honest header with
// an oversized length prefix, is refused before the client allocates
// for it. (The old code sized the buffer from the 4-byte prefix alone,
// up to server.MaxReplyFrame, and compared dimensions afterwards.)
func TestReplyHeaderBoundsPixelFrame(t *testing.T) {
	for _, tc := range []struct {
		name       string
		req        server.Request
		w, h       int
		prefix     uint32
		prefixRead bool // whether the client may consume the pixel frame's prefix
	}{
		{"oversized length prefix", server.Request{Width: 64, Height: 64}, 1, 1, 200 << 20, true},
		{"header larger than request", server.Request{Width: 64, Height: 64}, 4096, 4096, 4096 * 4096, false},
		{"non-positive request", server.Request{}, 1, 1, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, srv := net.Pipe()
			prefixErr := make(chan error, 1)
			go func() {
				defer srv.Close()
				var req server.Request
				if err := server.ReadJSON(srv, server.MaxRequestFrame, &req); err != nil {
					prefixErr <- err
					return
				}
				server.WriteJSON(srv, server.Response{OK: true, Width: tc.w, Height: tc.h})
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], tc.prefix)
				_, err := srv.Write(hdr[:])
				prefixErr <- err
			}()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := roundTrip(ctx, cl, tc.req)
			runtime.ReadMemStats(&after)
			cl.Close()

			var typed *Error
			if err == nil || errors.As(err, &typed) {
				t.Fatalf("roundTrip = %v, want a transport error (the stream is out of sync, the connection must not be pooled)", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("client allocated %d bytes for a reply it refused", grew)
			}
			// net.Pipe is synchronous: the peer's prefix write succeeds
			// only if the client read it.
			if perr := <-prefixErr; (perr == nil) != tc.prefixRead {
				t.Errorf("peer's pixel-frame prefix write = %v, want read by client: %v", perr, tc.prefixRead)
			}
		})
	}
}
