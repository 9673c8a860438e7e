// Package mpnet is the TCP transport of the message-passing runtime: the
// same Comm semantics as the in-process world, but across OS processes
// and machines, so the sort-last pipeline can run as an actual
// distributed program (one process per rank, as the paper's SP2 jobs
// did).
//
// Bootstrap is static, MPI-hostfile style: every rank knows the full
// address list. Rank r listens on Addrs[r]; connections are established
// once at startup (higher ranks dial lower ranks) and carry
// length-prefixed frames: src and tag identify the channel, and per-pair
// FIFO order is inherited from TCP.
package mpnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sortlast/internal/mp"
)

// Config describes one rank of a TCP world.
type Config struct {
	Rank  int
	Addrs []string // one listen address per rank

	// Listener optionally supplies a pre-bound listener for Addrs[Rank]
	// (useful for tests binding port 0).
	Listener net.Listener

	// DialTimeout bounds connection establishment per peer, retries
	// included; zero means 30 seconds.
	DialTimeout time.Duration

	// WrapTransport, when set, wraps the rank's transport before the
	// Comm is built on top of it. Fault-injection layers
	// (internal/faultinject) hook in here.
	WrapTransport func(mp.Transport) mp.Transport

	// Opts configure the Comm built on top of the transport.
	Opts mp.Options
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 30 * time.Second
	}
	return c.DialTimeout
}

// Node is one rank's endpoint of a TCP world.
type Node struct {
	comm     mp.Comm
	tr       *tcpTransport
	listener net.Listener
}

// Comm returns the rank's communicator.
func (n *Node) Comm() mp.Comm { return n.comm }

// Close tears down all connections and the listener. Blocked receives
// fail promptly. Call only when the program is quiesced — a Barrier
// before Close (MPI_Finalize-style) guarantees no peer still expects
// traffic from this rank beyond what is already in flight; Shutdown
// wraps that protocol with a deadline.
func (n *Node) Close() error {
	n.tr.close()
	if n.listener != nil {
		n.listener.Close()
	}
	return nil
}

// Shutdown quiesces the rank with a barrier (so no peer still expects
// traffic beyond what is in flight) and then closes the node. If the
// context expires first — a peer already died, or the program is wedged
// — the node is closed anyway, which fails this rank's and its peers'
// blocked receives promptly instead of letting them wait out their
// receive timeout. The node must not be in use by other goroutines
// (Comm endpoints are single-goroutine).
func (n *Node) Shutdown(ctx context.Context) error {
	quiesced := make(chan error, 1)
	go func() { quiesced <- n.comm.Barrier() }()
	select {
	case err := <-quiesced:
		n.Close()
		return err
	case <-ctx.Done():
		// Closing the transport fails the in-flight barrier, so the
		// goroutine exits promptly; wait for it so Shutdown leaks nothing.
		n.Close()
		<-quiesced
		return ctx.Err()
	}
}

const handshakeMagic = 0x534C4350 // "SLCP"

// Connect establishes the full mesh for this rank and returns its node.
// All ranks must call Connect concurrently; it returns once every peer
// connection is up.
func Connect(cfg Config) (*Node, error) {
	size := len(cfg.Addrs)
	if size <= 0 {
		return nil, fmt.Errorf("mpnet: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("mpnet: rank %d out of range [0,%d)", cfg.Rank, size)
	}
	tr := &tcpTransport{
		rank:  cfg.Rank,
		size:  size,
		conns: make([]*peerConn, size),
		box:   mp.NewMailbox(),
	}

	ln := cfg.Listener
	if ln == nil && size > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpnet: rank %d listen: %w", cfg.Rank, err)
		}
	}

	// Accept connections from higher ranks while dialing lower ranks.
	var wg sync.WaitGroup
	var acceptErr error
	expect := size - 1 - cfg.Rank
	if expect > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < expect; i++ {
				conn, err := ln.Accept()
				if err != nil {
					acceptErr = fmt.Errorf("mpnet: rank %d accept: %w", cfg.Rank, err)
					return
				}
				peer, err := readHandshake(conn, cfg.Rank, tr.conns)
				if err != nil {
					conn.Close()
					acceptErr = err
					return
				}
				tr.conns[peer] = newPeerConn(conn)
			}
		}()
	}

	deadline := time.Now().Add(cfg.dialTimeout())
	for peer := 0; peer < cfg.Rank; peer++ {
		conn, err := dialRetry(cfg.Addrs[peer], deadline)
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("mpnet: rank %d dial rank %d: %w", cfg.Rank, peer, err)
		}
		if err := writeHandshake(conn, cfg.Rank); err != nil {
			conn.Close()
			tr.close()
			return nil, err
		}
		tr.conns[peer] = newPeerConn(conn)
	}
	wg.Wait()
	if acceptErr != nil {
		tr.close()
		return nil, acceptErr
	}

	// Start a demux reader per peer.
	for peer, pc := range tr.conns {
		if pc != nil {
			go tr.readLoop(peer, pc)
		}
	}

	var wrapped mp.Transport = tr
	if cfg.WrapTransport != nil {
		wrapped = cfg.WrapTransport(tr)
	}
	comm, err := mp.FromTransport(cfg.Rank, size, wrapped, cfg.Opts)
	if err != nil {
		tr.close()
		return nil, err
	}
	return &Node{comm: comm, tr: tr, listener: ln}, nil
}

// Dial retry backoff: start small (the peer's listener is usually up
// within milliseconds), double per attempt, cap so a slow peer is still
// polled a few times per second.
const (
	dialBackoffMin = 2 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	backoff := dialBackoffMin
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("timeout")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		// The peer's listener may not be up yet; back off exponentially,
		// capped, and never sleep past the remaining deadline (a fixed
		// sleep here could overshoot it and turn a tight dial budget into
		// a late failure).
		sleep := backoff
		if remaining = time.Until(deadline); sleep > remaining {
			sleep = remaining
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

func writeHandshake(conn net.Conn, rank int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:4], handshakeMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(rank))
	_, err := conn.Write(buf[:])
	return err
}

// readHandshake reads a dialing peer's handshake from r and returns its
// rank, which must be one this rank accepts from — higher than its own,
// inside the world — and not connected yet.
func readHandshake(r io.Reader, rank int, conns []*peerConn) (int, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("mpnet: handshake read: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != handshakeMagic {
		return 0, fmt.Errorf("mpnet: bad handshake magic")
	}
	peer := int(binary.LittleEndian.Uint32(buf[4:8]))
	if peer <= rank || peer >= len(conns) || conns[peer] != nil {
		return 0, fmt.Errorf("mpnet: rank %d: bad handshake from rank %d", rank, peer)
	}
	return peer, nil
}

// tcpTransport implements mp.Transport over a connection mesh.
type tcpTransport struct {
	rank  int
	size  int
	conns []*peerConn
	box   *mp.Mailbox

	closeOnce sync.Once
}

// peerConn serializes frame writes on one connection. Under mu, Send
// builds each frame's header and writev vector in hdr, iov and bufs,
// which live as long as the connection, so a send allocates nothing.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	hdr  [8]byte
	iov  [2][]byte
	bufs net.Buffers
}

func newPeerConn(c net.Conn) *peerConn { return &peerConn{conn: c} }

// maxFrame bounds a frame payload; generous for 768x768 full-frame
// pixel transfers (9.4 MB) with room to spare.
const maxFrame = 1 << 28

// Send implements mp.Transport: frames are [tag u32][len u32][payload].
func (t *tcpTransport) Send(to, tag int, payload []byte) error {
	if to == t.rank {
		t.box.Put(t.rank, tag, payload)
		return nil
	}
	pc := t.conns[to]
	if pc == nil {
		return fmt.Errorf("mpnet: no connection to rank %d", to)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("mpnet: frame of %d bytes exceeds limit", len(payload))
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	binary.LittleEndian.PutUint32(pc.hdr[0:4], uint32(tag))
	binary.LittleEndian.PutUint32(pc.hdr[4:8], uint32(len(payload)))
	// Write header and payload with a single writev so each frame costs
	// one syscall instead of two (and small frames leave in one packet
	// even without Nagle).
	pc.iov = [2][]byte{pc.hdr[:], payload}
	pc.bufs = pc.iov[:]
	_, err := pc.bufs.WriteTo(pc.conn)
	pc.iov[1] = nil // the caller owns the payload again
	if err != nil {
		return fmt.Errorf("mpnet: send to %d: %w", to, err)
	}
	return nil
}

// Recv implements mp.Transport.
func (t *tcpTransport) Recv(from, tag int, timeout time.Duration) ([]byte, error) {
	return t.box.Get(from, tag, timeout)
}

func (t *tcpTransport) readLoop(peer int, pc *peerConn) {
	var hdr [8]byte // one header for the loop's lifetime
	for readFrame(pc.conn, &hdr, t.box, peer) == nil {
	}
	// Peer gone (or local close), or a frame no peer of this world
	// sends: already-delivered messages stay readable, but receives
	// that would block on this peer fail promptly instead of timing out.
	t.box.FailSource(peer)
}

// readFrame reads one [tag u32][len u32][payload] frame from r, the
// header into hdr, and delivers it to box as a message from peer. The
// mailbox reads the payload into a buffer it then owns, growing it as
// bytes arrive, so the length field alone allocates at most one read
// step.
func readFrame(r io.Reader, hdr *[8]byte, box *mp.Mailbox, peer int) error {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	tag := int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return fmt.Errorf("mpnet: frame of %d bytes from rank %d exceeds limit", n, peer)
	}
	return box.PutFrom(peer, tag, r, int(n))
}

func (t *tcpTransport) close() {
	t.closeOnce.Do(func() {
		for _, pc := range t.conns {
			if pc != nil {
				pc.conn.Close()
			}
		}
		t.box.Close()
	})
}
