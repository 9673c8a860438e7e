// Package mp is a from-scratch message-passing runtime standing in for
// the MPI library the paper used on the SP2 (the reproduction notes flag
// "no standard MPI; must hand-roll message passing").
//
// A Comm gives a rank tagged point-to-point messaging plus the handful of
// collectives the sort-last pipeline needs (barrier, gather).
// The in-process transport (World) runs each rank as a goroutine with
// strictly private memory: the only way data moves between ranks is by
// value through messages, which preserves the distributed-memory
// character of the algorithms. A TCP transport with identical semantics
// lives in internal/mpnet.
//
// Sends are buffered (they never block), receives match on (source, tag)
// and are FIFO per channel — the same ordering guarantees MPI gives for a
// single communicator, and what the deterministic collective algorithms
// rely on.
package mp

import (
	"errors"
	"fmt"
	"time"

	"sortlast/internal/trace"
)

// Comm is one rank's endpoint of a communicator.
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int

	// Send delivers payload to rank `to` under `tag`. It copies the
	// payload (the caller may immediately reuse the buffer) and never
	// blocks. Tags must be non-negative and below TagLimit.
	Send(to, tag int, payload []byte) error
	// Recv blocks until a message from rank `from` under `tag` arrives
	// and returns its payload. Messages from the same (source, tag)
	// channel arrive in send order. The caller owns the returned slice:
	// nothing else references it, and once the bytes are consumed the
	// caller may hand it back with Release — at most once, and without
	// touching it afterwards. Not releasing is always correct. The same
	// holds for the slice Sendrecv returns.
	Recv(from, tag int) ([]byte, error)
	// Sendrecv exchanges messages with a peer: it sends payload under
	// tag and returns the message received from the same peer under the
	// same tag. Safe for symmetric pairwise exchange (sends are
	// buffered).
	Sendrecv(peer, tag int, payload []byte) ([]byte, error)

	// Barrier blocks until every rank has entered the barrier.
	Barrier() error
	// Gather collects every rank's payload at root, indexed by rank.
	// Non-root callers receive nil. The root owns each returned part
	// under Recv's buffer contract (its own part is a copy of payload,
	// nil for a nil payload) and may Release them one by one.
	Gather(root int, payload []byte) ([][]byte, error)

	// SetStage labels the send-wait/recv-wait spans of subsequent
	// messages, so a trace attributes comm time to compositing stages.
	SetStage(stage string)

	// SetTracer attaches a span recorder: subsequent Send/Recv calls
	// (including those inside collectives) record send-wait/recv-wait
	// spans tagged with the current stage. nil detaches (the default).
	SetTracer(tr *trace.Rank)
	// Tracer returns the attached span recorder, nil when detached.
	// Instrumented code above the comm layer (compositors, gather)
	// records its own spans through this.
	Tracer() *trace.Rank
}

// TagLimit bounds user-visible tags; larger tags are reserved for the
// collective implementations.
const TagLimit = 1 << 20

// Reserved internal tag bases, spaced so that distinct collectives can
// never match each other's messages. FIFO ordering per (source, tag)
// channel keeps successive collectives of the same kind correctly paired.
const (
	tagBarrier = TagLimit + (1+iota)<<20
	tagGather
)

// ErrTimeout is returned by Recv when no matching message arrives within
// the world's receive timeout — in a correct program this means deadlock,
// so surfacing it beats hanging the test suite.
var ErrTimeout = errors.New("mp: receive timed out (likely deadlock)")

// Options configure a World.
type Options struct {
	// RecvTimeout bounds how long a Recv may block. Zero means the
	// default of 60 seconds; negative means no timeout.
	RecvTimeout time.Duration
}

func (o Options) recvTimeout() time.Duration {
	switch {
	case o.RecvTimeout == 0:
		return 60 * time.Second
	case o.RecvTimeout < 0:
		return 0
	default:
		return o.RecvTimeout
	}
}

func checkPeer(rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("mp: rank %d out of range [0,%d)", rank, size)
	}
	return nil
}

func checkTag(tag int) error {
	if tag < 0 || tag >= TagLimit {
		return fmt.Errorf("mp: tag %d out of range [0,%d)", tag, TagLimit)
	}
	return nil
}
