package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// frameOf length-prefixes one payload the way WriteFrame does.
func frameOf(payload []byte) []byte {
	var buf bytes.Buffer
	WriteFrame(&buf, payload)
	return buf.Bytes()
}

// decodablePrefix is the test's own reading of a byte stream: the
// requests a connection loop must hand to its handler, i.e. every frame
// up to the first that is truncated, oversize or not a JSON Request.
func decodablePrefix(data []byte) []Request {
	var reqs []Request
	for len(data) >= 4 {
		n := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if n > MaxRequestFrame || uint64(n) > uint64(len(data)) {
			break
		}
		var req Request
		if json.Unmarshal(data[:n], &req) != nil {
			break
		}
		reqs = append(reqs, req)
		data = data[n:]
	}
	return reqs
}

// readSizeConn records the largest buffer the connection loop ever read
// into — the size of the allocation a length prefix made it do.
type readSizeConn struct {
	net.Conn
	maxRead int
}

func (c *readSizeConn) Read(p []byte) (int, error) {
	if len(p) > c.maxRead {
		c.maxRead = len(p)
	}
	return c.Conn.Read(p)
}

// FuzzServeConn feeds arbitrary bytes to the one socket reader of the
// serving tier — the Listener's per-connection loop — over a net.Pipe
// with a stub handler. Whatever the bytes: no panic, no read buffer
// beyond MaxRequestFrame, the handler sees exactly the requests that
// decoded, every OK reply's payload is released exactly once and no
// error reply's, and the connection ends closed and untracked.
func FuzzServeConn(f *testing.F) {
	valid, _ := json.Marshal(Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotY: 30})
	failing, _ := json.Marshal(Request{Dataset: "cube"})
	f.Add(frameOf(valid))
	f.Add([]byte{0x10, 0x00})                                          // truncated header
	f.Add(frameOf(valid)[:10])                                         // truncated payload
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxRequestFrame+1))    // length over the limit
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, valid...))            // 4 GiB length
	f.Add(frameOf([]byte(`{"dataset": 7, "width": "wide"`)))           // valid length, invalid JSON
	f.Add(append(frameOf(valid), frameOf(failing)...))                 // two requests back to back
	f.Add(append(frameOf(valid), frameOf([]byte(`[1,2`))...))          // good then garbage
	f.Add(frameOf(nil))                                                // empty frame
	f.Add(frameOf([]byte(`{"trace":{"trace_id":"00ab","sampled":1}`))) // bad nested type

	f.Fuzz(func(t *testing.T, data []byte) {
		var mu sync.Mutex
		var seen []Request
		var handed, released int
		l := &Listener{conns: make(map[net.Conn]struct{}), handle: func(req Request) (*Response, []byte, func([]byte)) {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, req)
			if req.Width <= 0 {
				return &Response{Code: CodeBadRequest, Error: "stub"}, nil, func([]byte) { t.Error("release ran for an error reply") }
			}
			handed++
			payload, once := []byte{7}, false
			return &Response{OK: true, Width: 1, Height: 1}, payload, func(b []byte) {
				mu.Lock()
				defer mu.Unlock()
				if once || &b[0] != &payload[0] {
					t.Error("a payload was released twice, or in place of another")
				}
				once = true
				released++
			}
		}}
		peer, ours := net.Pipe()
		conn := &readSizeConn{Conn: ours}
		if !l.track(conn) {
			t.Fatal("fresh listener refused a connection")
		}
		go l.serveConn(conn)

		// The peer drains replies while it writes (a pipe has no
		// buffer), then hangs up. A loop that already gave up on the
		// stream closes first and fails the write instead.
		drained := make(chan struct{})
		go func() { io.Copy(io.Discard, peer); close(drained) }()
		peer.Write(data)
		peer.Close()

		served := make(chan struct{})
		go func() { l.wg.Wait(); close(served) }()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("connection loop did not end after the peer hung up")
		}
		<-drained
		if _, err := ours.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("connection left open: write after the loop ended: %v", err)
		}
		if n := len(l.conns); n != 0 {
			t.Errorf("%d connections still tracked", n)
		}
		if conn.maxRead > MaxRequestFrame {
			t.Errorf("read into a %d-byte buffer, limit %d", conn.maxRead, MaxRequestFrame)
		}
		if want := decodablePrefix(data); !reflect.DeepEqual(seen, want) {
			t.Errorf("handler saw %d requests %+v, stream decodes to %d %+v", len(seen), seen, len(want), want)
		}
		if released != handed {
			t.Errorf("%d of %d OK payloads released", released, handed)
		}
	})
}

// writtenConn counts the bytes of every Write that has returned. Over a
// net.Pipe a Write returns only once the peer has read all of it.
type writtenConn struct {
	net.Conn
	written atomic.Int64
}

func (c *writtenConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// TestReleaseOncePerOKReply pins the payload ownership a Handler's
// release carries: the listener calls it once per OK reply, only after
// the payload's last byte is on the pipe, also when the peer hangs up
// before the reply's header or between header and payload, and never
// for an error reply or a nil release.
func TestReleaseOncePerOKReply(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 5000)
	for _, hangUp := range []string{"", "before header", "before payload"} {
		var mu sync.Mutex
		var at []int64 // bytes on the pipe when each release ran
		conn := &writtenConn{}
		l := &Listener{conns: make(map[net.Conn]struct{}), handle: func(req Request) (*Response, []byte, func([]byte)) {
			ok := &Response{OK: true, Width: len(payload), Height: 1}
			switch req.Dataset {
			case "error":
				return &Response{Code: CodeBadRequest, Error: "stub"}, nil, func([]byte) { t.Error("release ran for an error reply") }
			case "unowned":
				return ok, payload, nil
			}
			return ok, payload, func(b []byte) {
				mu.Lock()
				defer mu.Unlock()
				if &b[0] != &payload[0] {
					t.Error("release got other bytes than the payload")
				}
				at = append(at, conn.written.Load())
			}
		}}
		peer, ours := net.Pipe()
		conn.Conn = ours
		l.track(conn)
		go l.serveConn(conn)

		var want []int64 // the stream offset after each owned payload
		var got int64
		read := func(req Request) {
			var resp Response
			b, err := ReadFrame(peer, MaxRequestFrame, nil)
			if err == nil {
				err = json.Unmarshal(b, &resp)
			}
			if got += 4 + int64(len(b)); err != nil || !resp.OK {
				return
			}
			gray, err := ReadFrame(peer, MaxReplyFrame, nil)
			if got += 4 + int64(len(gray)); err == nil && req.Dataset == "" {
				want = append(want, got)
			}
		}
		reqs := []Request{{}, {Dataset: "error"}, {Dataset: "unowned"}, {}}
		if hangUp != "" {
			reqs = reqs[:1]
		}
		for _, req := range reqs {
			WriteJSON(peer, req)
			switch hangUp {
			case "before header":
			case "before payload":
				ReadFrame(peer, MaxRequestFrame, nil)
			default:
				read(req)
			}
		}
		peer.Close()
		l.wg.Wait()
		if hangUp != "" {
			want = []int64{conn.written.Load()}
		}
		if !reflect.DeepEqual(at, want) {
			t.Errorf("hang-up %q: releases ran at stream offsets %v, want %v", hangUp, at, want)
		}
	}
}

func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrain pins the listener's shutdown contract with one connection
// idle and one inside its handler: Drain hangs up on the idle one, waits
// for the busy one's reply to be written (or force-closes it when ctx
// expires first), and leaves no goroutine behind.
func TestDrain(t *testing.T) {
	for _, forced := range []bool{false, true} {
		before := runtime.NumGoroutine()
		entered, release := make(chan struct{}), make(chan struct{})
		l, err := Listen("127.0.0.1:0", func(Request) (*Response, []byte, func([]byte)) {
			close(entered)
			<-release
			return &Response{OK: true, Width: 1, Height: 1}, []byte{7}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		idle, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		busy, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(busy, Request{Dataset: "cube", Width: 1, Height: 1}); err != nil {
			t.Fatal(err)
		}
		<-entered

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if forced {
			ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		}
		drained := make(chan error, 1)
		go func() { drained <- l.Drain(ctx) }()

		// The idle connection is hung up on while the handler still runs.
		idle.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("forced=%v: idle connection read: %v, want EOF", forced, err)
		}
		select {
		case err := <-drained:
			t.Fatalf("forced=%v: Drain returned (%v) with a handler still running", forced, err)
		case <-time.After(50 * time.Millisecond): // past the forced ctx
		}
		close(release)

		var resp Response
		err = ReadJSON(busy, MaxRequestFrame, &resp)
		if forced {
			if err == nil {
				t.Error("forced drain still delivered the reply on a force-closed connection")
			}
			if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("forced Drain = %v, want deadline exceeded", err)
			}
		} else {
			if err != nil || !resp.OK {
				t.Errorf("in-flight reply lost by Drain: %v %+v", err, resp)
			}
			if gray, err := ReadFrame(busy, MaxReplyFrame, nil); err != nil || !bytes.Equal(gray, []byte{7}) {
				t.Errorf("in-flight payload lost by Drain: %v %v", gray, err)
			}
			if err := <-drained; err != nil {
				t.Errorf("Drain = %v", err)
			}
		}
		if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
			t.Errorf("forced=%v: listener still accepts after Drain", forced)
		}
		cancel()
		idle.Close()
		busy.Close()
		waitGoroutines(t, before)
	}
}
