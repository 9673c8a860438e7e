package mp

import (
	"time"

	"sortlast/internal/trace"
)

// Transport moves raw tagged messages between ranks. The in-process
// channel transport lives in this package; a TCP transport lives in
// internal/mpnet. FromTransport wraps any Transport with the Comm
// semantics (collectives, validation, tracing), so transports stay dumb
// byte movers.
//
// Contract: Send never blocks indefinitely (buffered or async), copies or
// takes ownership of payload before returning, and messages between one
// (sender, receiver, tag) triple arrive in send order.
type Transport interface {
	// Send delivers payload to rank `to` under an internal tag (which
	// may exceed TagLimit).
	Send(to, tag int, payload []byte) error
	// Recv blocks for a message from `from` under `tag`; a zero timeout
	// means block forever.
	Recv(from, tag int, timeout time.Duration) ([]byte, error)
}

// FromTransport builds a Comm for one rank of a size-rank world on top of
// an arbitrary transport. Each returned Comm must be used by a single
// goroutine.
func FromTransport(rank, size int, tr Transport, opts Options) (Comm, error) {
	if size <= 0 {
		return nil, errSize(size)
	}
	if err := checkPeer(rank, size); err != nil {
		return nil, err
	}
	return &comm{rank: rank, size: size, tr: tr, opts: opts}, nil
}

// rawComm is the narrow surface the collective algorithms need; raw
// sends and receives bypass user-tag validation.
type rawComm interface {
	Rank() int
	Size() int
	sendRaw(to, tag int, payload []byte) error
	recvRaw(from, tag int) ([]byte, error)
}

// comm implements Comm over a Transport.
type comm struct {
	rank   int
	size   int
	tr     Transport
	opts   Options
	stage  string
	tracer *trace.Rank
}

func (c *comm) Rank() int                { return c.rank }
func (c *comm) Size() int                { return c.size }
func (c *comm) SetStage(stage string)    { c.stage = stage }
func (c *comm) SetTracer(tr *trace.Rank) { c.tracer = tr }
func (c *comm) Tracer() *trace.Rank      { return c.tracer }

func (c *comm) Send(to, tag int, payload []byte) error {
	if err := checkPeer(to, c.size); err != nil {
		return err
	}
	if err := checkTag(tag); err != nil {
		return err
	}
	return c.sendRaw(to, tag, payload)
}

func (c *comm) sendRaw(to, tag int, payload []byte) error {
	m := c.tracer.Begin()
	err := c.tr.Send(to, tag, payload)
	c.tracer.End(m, trace.SpanSendWait, c.stage)
	return err
}

func (c *comm) Recv(from, tag int) ([]byte, error) {
	if err := checkPeer(from, c.size); err != nil {
		return nil, err
	}
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	return c.recvRaw(from, tag)
}

func (c *comm) recvRaw(from, tag int) ([]byte, error) {
	m := c.tracer.Begin()
	msg, err := c.tr.Recv(from, tag, c.opts.recvTimeout())
	c.tracer.End(m, trace.SpanRecvWait, c.stage)
	return msg, err
}

func (c *comm) Sendrecv(peer, tag int, payload []byte) ([]byte, error) {
	if err := c.Send(peer, tag, payload); err != nil {
		return nil, err
	}
	return c.Recv(peer, tag)
}

func (c *comm) Barrier() error { return barrier(c) }
func (c *comm) Gather(root int, payload []byte) ([][]byte, error) {
	return gather(c, root, payload)
}
