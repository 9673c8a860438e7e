package mp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sortlast/internal/pool"
)

// World is the in-process transport: P ranks running as goroutines,
// communicating only through copied message payloads.
type World struct {
	size  int
	opts  Options
	boxes []Mailbox
	trs   []chanTransport
}

func errSize(p int) error {
	return fmt.Errorf("mp: world size %d must be positive", p)
}

// NewWorld creates a world of p ranks.
func NewWorld(p int, opts Options) (*World, error) {
	if p <= 0 {
		return nil, errSize(p)
	}
	w := &World{size: p, opts: opts, boxes: make([]Mailbox, p), trs: make([]chanTransport, p)}
	for i := range w.boxes {
		w.boxes[i].init()
		w.trs[i] = chanTransport{world: w, rank: i}
	}
	return w, nil
}

// Comm returns rank r's endpoint. Each endpoint must be used by a single
// goroutine.
func (w *World) Comm(r int) (Comm, error) {
	if err := checkPeer(r, w.size); err != nil {
		return nil, err
	}
	return FromTransport(r, w.size, w.Transport(r), w.opts)
}

// Transport returns rank r's raw transport, for callers that wrap it
// (e.g. fault-injection tests) before building a Comm with
// FromTransport.
func (w *World) Transport(r int) Transport {
	return &w.trs[r]
}

// chanTransport is the in-process Transport: Send drops a copied payload
// into the receiver's mailbox.
type chanTransport struct {
	world *World
	rank  int
}

// Send implements Transport.
func (t *chanTransport) Send(to, tag int, payload []byte) error {
	t.world.boxes[to].Put(t.rank, tag, payload)
	return nil
}

// Recv implements Transport.
func (t *chanTransport) Recv(from, tag int, timeout time.Duration) ([]byte, error) {
	return t.world.boxes[t.rank].Get(from, tag, timeout)
}

func (w *World) closeAll() {
	for i := range w.boxes {
		w.boxes[i].Close()
	}
}

// Shutdown closes every rank's mailbox: receives that are blocked (or
// would block) fail promptly instead of waiting out their timeout.
// Long-running services built on a standing world use it to cancel the
// whole rank pool during teardown; it is safe to call more than once and
// concurrently with rank goroutines.
func (w *World) Shutdown() { w.closeAll() }

// Run spawns fn on every rank of a fresh world and waits for all ranks to
// finish. It returns the first non-nil error (by rank order). Panics in a
// rank are re-panicked in the caller after all other ranks are released,
// so a crashing test fails loudly instead of deadlocking.
func Run(p int, opts Options, fn func(c Comm) error) error {
	w, err := NewWorld(p, opts)
	if err != nil {
		return err
	}
	return runRanks(p, w.Comm, w.closeAll, fn)
}

// runRanks spawns fn on ranks built by comm. If building a rank's
// endpoint fails mid-loop, the world is closed (releasing already-spawned
// ranks blocked in Recv) and the spawned ranks are waited for before the
// error is returned — an early return here would leak those goroutines
// and leave the world open forever. Split from Run so the build-failure
// path is testable with an injected comm builder.
func runRanks(p int, comm func(int) (Comm, error), closeAll func(), fn func(c Comm) error) error {
	errs := make([]error, p)
	panics := make([]any, p)
	var commErr error
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		c, err := comm(r)
		if err != nil {
			commErr = err
			closeAll() // release already-spawned ranks blocked in Recv
			break
		}
		wg.Add(1)
		go func(r int, c Comm) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[r] = v
					closeAll()
				}
			}()
			errs[r] = fn(c)
		}(r, c)
	}
	wg.Wait()
	for r, v := range panics {
		if v != nil {
			panic(fmt.Sprintf("mp: rank %d panicked: %v", r, v))
		}
	}
	if commErr != nil {
		return commErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type msgKey struct {
	src, tag int
}

// Mailbox is a rank's incoming-message store: FIFO queues keyed by
// (source, tag). It is exported so alternative transports (e.g. the TCP
// transport in internal/mpnet) can reuse the matching semantics.
type Mailbox struct {
	mu      sync.Mutex
	cond    sync.Cond
	queues  map[msgKey]*msgQueue
	opened  map[int]int // queues per source
	closed  bool
	deadSrc map[int]bool

	// Deadline watchdog, created once and re-armed per blocking Get (the
	// mailbox has a single consumer, so at most one Get blocks at a time).
	// gen invalidates late fires from a previous arming: the callback only
	// flags expiry when its arming is still the current one.
	timer   *time.Timer
	gen     int
	armGen  int
	expired bool
}

// msgQueue is one (source, tag) FIFO channel. head indexes the next
// undelivered message; the slice is compacted and reused once drained, so
// a steady send/receive exchange allocates no queue storage.
type msgQueue struct {
	msgs [][]byte
	head int
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	b := &Mailbox{}
	b.init()
	return b
}

func (b *Mailbox) init() {
	b.queues = make(map[msgKey]*msgQueue)
	b.opened = make(map[int]int)
	b.cond.L = &b.mu
}

// FailSource marks one sender as gone: already-delivered messages remain
// readable, but a Get that would otherwise block on that source fails
// immediately. Transports call this when a peer connection drops so a
// receiver does not hang for the full timeout.
func (b *Mailbox) FailSource(src int) {
	b.mu.Lock()
	if b.deadSrc == nil {
		b.deadSrc = make(map[int]bool)
	}
	b.deadSrc[src] = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Put copies payload into a pooled receive buffer and enqueues it on the
// (src, tag) channel.
func (b *Mailbox) Put(src, tag int, payload []byte) {
	cp, _ := pool.Bytes.Get(len(payload))
	copy(cp, payload)
	b.enqueue(src, tag, cp)
}

// readStep bounds how much PutFrom allocates ahead of the bytes that
// have actually arrived.
const readStep = 1 << 20

// maxQueuesPerSource caps the (source, tag) channels a peer may open
// through PutFrom. Queues are never removed, and a world needs few per
// source — the compositing tags, the collective bases, log P barrier
// rounds — so a peer past the cap is inventing tags nothing will drain.
const maxQueuesPerSource = 64

// QueueLimitError reports a frame whose tag would open one channel more
// than maxQueuesPerSource from its source.
type QueueLimitError struct{ Src, Tag int }

func (e *QueueLimitError) Error() string {
	return fmt.Sprintf("mp: tag %d from rank %d would open more than %d message queues",
		e.Tag, e.Src, maxQueuesPerSource)
}

// PutFrom reads an n-byte payload from r straight into a pooled receive
// buffer and enqueues it on the (src, tag) channel — the mailbox takes
// the buffer the transport filled instead of copying it. The length n
// comes from a peer-written header, so the buffer grows as bytes arrive
// (readStep first, then doubling): a header alone cannot make the rank
// allocate more than it has been sent plus one step. On a read error
// nothing is enqueued; a tag past the source's queue cap is refused with
// a *QueueLimitError before anything is read.
func (b *Mailbox) PutFrom(src, tag int, r io.Reader, n int) error {
	b.mu.Lock()
	full := b.queues[msgKey{src, tag}] == nil && b.opened[src] >= maxQueuesPerSource
	b.mu.Unlock()
	if full {
		return &QueueLimitError{Src: src, Tag: tag}
	}
	buf, _ := pool.Bytes.Get(min(n, readStep))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			Release(buf)
			return err
		}
		if got = len(buf); got == n {
			break
		}
		next, _ := pool.Bytes.Get(min(n, 2*got))
		copy(next, buf)
		Release(buf)
		buf = next
	}
	b.enqueue(src, tag, buf)
	return nil
}

// enqueue appends msg, which the mailbox now owns, to the (src, tag)
// channel.
func (b *Mailbox) enqueue(src, tag int, msg []byte) {
	b.mu.Lock()
	k := msgKey{src, tag}
	q := b.queues[k]
	if q == nil {
		q = &msgQueue{}
		b.queues[k] = q
		b.opened[src]++
	}
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	q.msgs = append(q.msgs, msg)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Get dequeues the next (src, tag) message, blocking up to timeout
// (zero: forever). It fails once the mailbox is closed and drained.
func (b *Mailbox) Get(src, tag int, timeout time.Duration) ([]byte, error) {
	k := msgKey{src, tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	armed := false
	defer func() {
		if armed {
			b.disarm()
		}
	}()
	for {
		if q := b.queues[k]; q != nil && q.head < len(q.msgs) {
			msg := q.msgs[q.head]
			q.msgs[q.head] = nil
			q.head++
			return msg, nil
		}
		if b.closed {
			return nil, fmt.Errorf("mp: world closed while waiting for (src=%d, tag=%d)", src, tag)
		}
		if b.deadSrc[src] {
			return nil, fmt.Errorf("mp: peer %d disconnected while waiting for tag %d", src, tag)
		}
		if armed && b.expired {
			return nil, fmt.Errorf("%w: rank waiting for (src=%d, tag=%d)", ErrTimeout, src, tag)
		}
		if timeout > 0 && !armed {
			// Arm the watchdog lazily, only when the receive actually has
			// to block: the already-delivered case costs no timer work.
			armed = true
			b.arm(timeout)
		}
		b.cond.Wait()
	}
}

// arm schedules the deadline watchdog; caller holds b.mu.
func (b *Mailbox) arm(timeout time.Duration) {
	b.gen++
	b.armGen = b.gen
	b.expired = false
	if b.timer == nil {
		b.timer = time.AfterFunc(timeout, func() {
			b.mu.Lock()
			if b.armGen == b.gen {
				b.expired = true
			}
			b.mu.Unlock()
			b.cond.Broadcast()
		})
	} else {
		b.timer.Reset(timeout)
	}
}

// disarm cancels the watchdog; caller holds b.mu. A fire that already
// slipped past Stop sees a stale generation and is ignored.
func (b *Mailbox) disarm() {
	b.gen++
	b.expired = false
	b.timer.Stop()
}

// Close wakes all waiters; subsequent Gets on empty channels fail.
func (b *Mailbox) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
