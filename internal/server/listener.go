package server

import (
	"context"
	"net"
	"sync"
	"time"
)

// Handler answers one decoded request: the reply header and, when the
// header says OK, the gray payload that follows it. It must always
// return a response; a typed error is a reply like any other. The
// payload stays the handler's: a nil release means the listener only
// reads it; a non-nil release takes it back once, after the listener
// has written (or failed to write) an OK reply, and the listener does
// not touch the payload afterwards.
type Handler func(Request) (resp *Response, payload []byte, release func([]byte))

// Listener serves the frame protocol (see proto.go) on one TCP address:
// it owns the socket, the set of live connections, the accept loop and
// the per-connection request loop, and hands every decoded request to
// its Handler. renderd and the fleet gateway are two Handlers over it.
type Listener struct {
	ln     net.Listener
	handle Handler

	// closed guards only the connection set: once set, no connection is
	// added. What a handler does with a request that arrives during a
	// drain (renderd: typed shutting_down) is the handler's business.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // accept loop + connection loops
}

// Listen starts serving h on addr.
func Listen(addr string, h Handler) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, handle: h, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr returns the listen address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !l.track(conn) {
			conn.Close()
			return
		}
		go l.serveConn(conn)
	}
}

// track registers conn and its loop, refusing once the listener closed.
func (l *Listener) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conns[conn] = struct{}{}
	l.wg.Add(1)
	return true
}

// serveConn answers a connection's requests in order until the peer
// hangs up, a drain expires the read, or the framing is garbage.
func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	for {
		var req Request
		if err := ReadJSON(conn, MaxRequestFrame, &req); err != nil {
			return
		}
		resp, gray, release := l.handle(req)
		err := WriteJSON(conn, resp)
		if resp.OK {
			if err == nil {
				err = WriteFrame(conn, gray)
			}
			if release != nil {
				release(gray)
			}
		}
		if err != nil {
			return
		}
	}
}

// Close stops accepting connections; live ones keep being served.
func (l *Listener) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.ln.Close()
}

// Drain stops accepting, expires idle readers, and waits for handlers
// to finish writing their current reply; connections still open when
// ctx expires are force-closed, and ctx's error is returned.
func (l *Listener) Drain(ctx context.Context) error {
	l.Close()
	l.eachConn(func(c net.Conn) { c.SetReadDeadline(time.Now()) })
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.eachConn(func(c net.Conn) { c.Close() })
		<-done
		return ctx.Err()
	}
}

func (l *Listener) eachConn(f func(net.Conn)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.conns {
		f(c)
	}
}
