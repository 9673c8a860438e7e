// Package client is the Go client library for renderd, the frame
// service in internal/server. It speaks the length-prefixed TCP
// protocol, maps the server's typed error codes onto sentinel errors
// (errors.Is(err, client.ErrOverloaded) distinguishes backpressure from
// failure), and pools connections so concurrent Render calls multiplex
// over several sequential streams.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"sortlast/internal/server"
	"sortlast/internal/trace"
)

// Sentinel errors for the server's typed reply codes.
var (
	// ErrOverloaded means the admission queue was full; the request was
	// rejected without queuing and may be retried after backing off.
	ErrOverloaded = errors.New("renderd: overloaded")
	// ErrBadRequest means the request failed validation; retrying the
	// same request cannot succeed.
	ErrBadRequest = errors.New("renderd: bad request")
	// ErrDeadline means the request's server-side deadline expired
	// before it could be dispatched.
	ErrDeadline = errors.New("renderd: deadline exceeded")
	// ErrShutdown means the server is draining and no longer admits work.
	ErrShutdown = errors.New("renderd: server shutting down")
	// ErrWorldFailed means the resident rank world died or wedged while
	// the request was in flight; the server rebuilds the world, so the
	// request may be retried.
	ErrWorldFailed = errors.New("renderd: rank world failed")
	// ErrInternal means the serving pipeline failed.
	ErrInternal = errors.New("renderd: internal server error")
)

// Error is a typed failure reply from the server.
type Error struct {
	Code string // one of the server.Code* values
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("renderd: %s: %s", e.Code, e.Msg) }

// Unwrap maps the code to its sentinel so errors.Is works.
func (e *Error) Unwrap() error {
	switch e.Code {
	case server.CodeOverloaded:
		return ErrOverloaded
	case server.CodeBadRequest:
		return ErrBadRequest
	case server.CodeDeadline:
		return ErrDeadline
	case server.CodeShutdown:
		return ErrShutdown
	case server.CodeWorldFailed:
		return ErrWorldFailed
	default:
		return ErrInternal
	}
}

// Frame is one rendered reply.
type Frame struct {
	Width, Height int
	// Gray is the row-major 8-bit image, Width*Height bytes.
	Gray  []byte
	Stats server.FrameStats

	// Trace is the server's span tree for this request, present only
	// when req.Trace asked for sampling (trace.NewContext). Against a
	// fleet gateway this is the merged multi-process trace — gateway
	// decisions plus every dispatch attempt's replica spans. Feed it to
	// (*trace.Wire).WritePerfetto to view it.
	Trace *trace.Wire
}

// At returns the gray value at (x, y).
func (f *Frame) At(x, y int) uint8 { return f.Gray[y*f.Width+x] }

// Client talks to one renderd instance. It is safe for concurrent use;
// each in-flight Render occupies one pooled connection.
type Client struct {
	addr string
	idle chan idleConn

	// probeAfter is how long a connection may sit idle before checkout
	// health-checks it (see probeIdle); overridable for tests.
	probeAfter time.Duration
}

// idleConn is one pooled connection with its park time, so checkout can
// probe only connections that have been idle long enough to have been
// closed underneath us (a restarted world, a gateway dropping backends).
type idleConn struct {
	c     net.Conn
	since time.Time
}

// maxIdleConns bounds the pooled (idle) connections kept open by New;
// NewPooled lets gateway-scale callers raise it.
const maxIdleConns = 16

// idleProbeAfter is the default idle age beyond which a pooled
// connection is health-checked on checkout. Connections cycling through
// a busy pool skip the probe entirely.
const idleProbeAfter = 50 * time.Millisecond

// idleProbeTimeout bounds the health-check read: a live idle connection
// has nothing to send, so the read times out almost immediately; a
// connection closed by a restarted server returns EOF/RST instead.
const idleProbeTimeout = time.Millisecond

// New returns a client for the renderd instance at addr. Connections
// are dialed lazily on first use.
func New(addr string) *Client { return NewPooled(addr, maxIdleConns) }

// NewPooled returns a client keeping up to maxIdle pooled connections.
// The fleet gateway funnels many concurrent requests through one client
// per replica, so it needs a pool sized to its concurrency rather than
// the single-caller default.
func NewPooled(addr string, maxIdle int) *Client {
	if maxIdle < 1 {
		maxIdle = maxIdleConns
	}
	return &Client{
		addr:       addr,
		idle:       make(chan idleConn, maxIdle),
		probeAfter: idleProbeAfter,
	}
}

// Render requests one frame. The context bounds the round trip; its
// deadline (when set and sooner than req.DeadlineMS) is also shipped to
// the server so queue-side cancellation matches the caller's budget.
// Typed server replies come back as *Error, never retried here: the
// fleet gateway retries across replicas itself.
func (c *Client) Render(ctx context.Context, req server.Request) (*Frame, error) {
	frame, err := c.renderOnce(ctx, req)
	if err != nil {
		return nil, err
	}
	upscalePreview(frame, req.Width, req.Height)
	return frame, nil
}

// upscalePreview maps a reduced-resolution reply — quality "preview",
// whether asked for or degraded to — onto the requested geometry with
// nearest-neighbor sampling, so callers always receive the dimensions
// they asked for; Stats.Quality still says what was rendered. Full-size
// replies pass through untouched.
func upscalePreview(f *Frame, w, h int) {
	if f == nil || f.Stats.Quality != server.QualityPreview ||
		w <= 0 || h <= 0 || f.Width <= 0 || f.Height <= 0 ||
		(f.Width == w && f.Height == h) {
		return
	}
	out := make([]byte, w*h)
	for y := 0; y < h; y++ {
		src := f.Gray[(y*f.Height/h)*f.Width:]
		dst := out[y*w : (y+1)*w]
		for x := range dst {
			dst[x] = src[x*f.Width/w]
		}
	}
	f.Gray, f.Width, f.Height = out, w, h
}

// renderOnce is one request/reply round trip over one pooled connection.
func (c *Client) renderOnce(ctx context.Context, req server.Request) (*Frame, error) {
	if d, ok := ctx.Deadline(); ok {
		remaining := time.Until(d)
		if remaining <= 0 {
			return nil, context.DeadlineExceeded
		}
		// Milliseconds truncates toward zero, so a sub-millisecond budget
		// used to ship DeadlineMS=0 — which the server reads as "use the
		// 30s default", turning the tightest deadline into the laxest.
		// Clamp to a 1ms floor: the server fails such a request fast, and
		// the connection deadline still enforces the true budget here.
		ms := remaining.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		if req.DeadlineMS == 0 || ms < req.DeadlineMS {
			req.DeadlineMS = ms
		}
	}
	conn, err := c.conn(ctx)
	if err != nil {
		return nil, err
	}
	frame, err := roundTrip(ctx, conn, req)
	if err != nil {
		var typed *Error
		if errors.As(err, &typed) {
			// Typed server replies leave the stream in sync; reuse it.
			c.release(conn)
			return nil, err
		}
		conn.Close() // transport error: stream state unknown
		return nil, err
	}
	c.release(conn)
	return frame, nil
}

func roundTrip(ctx context.Context, conn net.Conn, req server.Request) (*Frame, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Time{}
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := server.WriteJSON(conn, req); err != nil {
		return nil, fmt.Errorf("renderd: send: %w", err)
	}
	var resp server.Response
	if err := server.ReadJSON(conn, server.MaxRequestFrame, &resp); err != nil {
		return nil, fmt.Errorf("renderd: read reply: %w", err)
	}
	if !resp.OK {
		return nil, &Error{Code: resp.Code, Msg: resp.Error}
	}
	// A served frame never exceeds the requested geometry (preview
	// shrinks, nothing grows) and no request failing Check is served, so
	// the header bounds the pixel frame before any of it is allocated.
	if resp.Width <= 0 || resp.Width > req.Width || resp.Height <= 0 || resp.Height > req.Height || req.Check() != nil {
		return nil, fmt.Errorf("renderd: reply declares a %dx%d frame for a %dx%d request",
			resp.Width, resp.Height, req.Width, req.Height)
	}
	gray, err := server.ReadFrame(conn, resp.Width*resp.Height)
	if err != nil {
		return nil, fmt.Errorf("renderd: read pixels: %w", err)
	}
	if len(gray) != resp.Width*resp.Height {
		return nil, fmt.Errorf("renderd: %d pixel bytes for a %dx%d frame",
			len(gray), resp.Width, resp.Height)
	}
	return &Frame{Width: resp.Width, Height: resp.Height, Gray: gray, Stats: resp.Stats, Trace: resp.Trace}, nil
}

func (c *Client) conn(ctx context.Context) (net.Conn, error) {
	for {
		select {
		case ic := <-c.idle:
			// Health-check connections that sat idle long enough for the
			// server to have restarted: a dead connection is dropped here
			// and the next pooled (or fresh) one used, instead of
			// surfacing a first-byte error to the caller.
			if time.Since(ic.since) < c.probeAfter || probeIdle(ic.c) {
				return ic.c, nil
			}
			ic.c.Close()
			continue
		default:
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			return nil, fmt.Errorf("renderd: dial %s: %w", c.addr, err)
		}
		return conn, nil
	}
}

// probeIdle reports whether an idle pooled connection is still usable: a
// short read that times out means the stream is alive and in sync (the
// server never sends unsolicited bytes), while EOF or a reset means the
// peer closed it, and unexpected data means the stream is desynced.
func probeIdle(conn net.Conn) bool {
	if err := conn.SetReadDeadline(time.Now().Add(idleProbeTimeout)); err != nil {
		return false
	}
	var b [1]byte
	_, err := conn.Read(b[:])
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return conn.SetReadDeadline(time.Time{}) == nil
	}
	return false
}

func (c *Client) release(conn net.Conn) {
	if err := conn.SetDeadline(time.Time{}); err != nil {
		// The deadline could not be cleared (connection torn down, fd
		// gone): pooling it would poison a later Render with a stale
		// deadline or a dead stream. Drop it instead.
		conn.Close()
		return
	}
	select {
	case c.idle <- idleConn{c: conn, since: time.Now()}:
	default:
		conn.Close()
	}
}

// Close drops all pooled connections. In-flight Renders are unaffected
// (their connections are simply not returned to the pool).
func (c *Client) Close() {
	for {
		select {
		case ic := <-c.idle:
			ic.c.Close()
		default:
			return
		}
	}
}
