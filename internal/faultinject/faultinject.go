// Package faultinject wraps mp.Transport endpoints with deterministic
// fault injection, so the failure paths of the serving stack can be
// exercised from tests and load drivers instead of waiting for a real
// interconnect to misbehave. The paper's SP2 runs assume a perfectly
// reliable network; a service built on the same exchange patterns needs
// its wedged-rank and torn-connection behavior pinned by tests.
//
// An Injector is configured once (probabilistic delays and connection
// resets, seeded so a run is reproducible) and then wraps each world
// incarnation's per-rank transports via beginWorld + wrap.
// On top of the probabilistic faults, tests can arm deterministic
// faults against the current incarnation: Crash(rank) makes every
// operation on that rank's transport fail (the in-process equivalent of
// the rank's process dying), Stall(rank, d) makes them block (a wedged
// or pathologically slow rank). Armed faults do not carry over to the
// next incarnation — a restarted world starts healthy, which is exactly
// the recovery the supervision layer is supposed to deliver.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sortlast/internal/mp"
)

// Sentinel errors for injected faults, so tests and logs can tell an
// injected failure from a real one.
var (
	// ErrCrashed is returned by every operation on a crashed rank's
	// transport.
	ErrCrashed = errors.New("faultinject: rank crashed")
	// ErrReset is returned by an operation that drew a connection reset.
	ErrReset = errors.New("faultinject: connection reset")
)

// Config sets the probabilistic fault mix. All probabilities are per
// message operation and default to zero (no faults); an Injector with a
// zero Config is a transparent pass-through until a deterministic fault
// is armed.
type Config struct {
	// Seed makes the probabilistic draws reproducible. Zero means 1.
	Seed int64

	// ResetProb fails a Send or Recv with ErrReset, as a torn TCP
	// connection would.
	ResetProb float64
	// DelayProb holds a Send for a uniform duration in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays; zero means 1ms.
	MaxDelay time.Duration
}

func (c Config) maxDelay() time.Duration {
	if c.MaxDelay <= 0 {
		return time.Millisecond
	}
	return c.MaxDelay
}

// Injector owns the fault state shared by all wrapped transports. It is
// safe for concurrent use by all rank goroutines.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
	gen *generation
}

// generation is one world incarnation's deterministic fault state.
// Sleeps (stalls, delays) select on done so a torn-down world never
// keeps a rank goroutine sleeping past its teardown.
type generation struct {
	mu      sync.Mutex
	crashed map[int]bool
	stalled map[int]time.Duration
	done    chan struct{}
	closed  bool
}

func (g *generation) end() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.closed = true
		close(g.done)
	}
}

// New returns an injector with the given probabilistic fault mix.
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed)),
		gen: &generation{done: make(chan struct{})},
	}
}

// beginWorld starts a fresh incarnation: armed crashes and stalls from
// the previous incarnation are dropped and its in-flight sleeps are
// released. Call it once per world build, before wrapping the ranks.
func (inj *Injector) beginWorld() {
	inj.mu.Lock()
	prev := inj.gen
	inj.gen = &generation{done: make(chan struct{})}
	inj.mu.Unlock()
	prev.end()
}

// EndWorld releases every in-flight injected sleep of the current
// incarnation (armed crashes stay armed until beginWorld). Teardown
// paths call it so a stalled rank unblocks immediately instead of
// sleeping out its injected stall.
func (inj *Injector) EndWorld() {
	inj.mu.Lock()
	g := inj.gen
	inj.mu.Unlock()
	g.end()
}

// wrap wraps one rank's transport for the current incarnation.
func (inj *Injector) wrap(rank int, tr mp.Transport) mp.Transport {
	inj.mu.Lock()
	g := inj.gen
	inj.mu.Unlock()
	return &transport{inj: inj, gen: g, rank: rank, tr: tr}
}

// WrapWorld is beginWorld plus wrap over a whole rank pool.
func (inj *Injector) WrapWorld(trs []mp.Transport) []mp.Transport {
	inj.beginWorld()
	out := make([]mp.Transport, len(trs))
	for r, tr := range trs {
		out[r] = inj.wrap(r, tr)
	}
	return out
}

// Crash arms a deterministic crash: every subsequent operation on the
// rank's transport (this incarnation only) fails with ErrCrashed.
func (inj *Injector) Crash(rank int) {
	g := inj.current()
	g.mu.Lock()
	if g.crashed == nil {
		g.crashed = make(map[int]bool)
	}
	g.crashed[rank] = true
	g.mu.Unlock()
}

// Stall arms a deterministic stall: every subsequent operation on the
// rank's transport (this incarnation only) sleeps d before proceeding,
// released early by EndWorld/beginWorld.
func (inj *Injector) Stall(rank int, d time.Duration) {
	g := inj.current()
	g.mu.Lock()
	if g.stalled == nil {
		g.stalled = make(map[int]time.Duration)
	}
	g.stalled[rank] = d
	g.mu.Unlock()
}

func (inj *Injector) current() *generation {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.gen
}

// roll draws one seeded Bernoulli sample.
func (inj *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	inj.mu.Lock()
	v := inj.rng.Float64()
	inj.mu.Unlock()
	return v < p
}

// delay draws one seeded uniform delay in (0, max].
func (inj *Injector) delay(max time.Duration) time.Duration {
	inj.mu.Lock()
	v := inj.rng.Int63n(int64(max))
	inj.mu.Unlock()
	return time.Duration(v) + 1
}

// transport is one rank's fault-wrapped endpoint.
type transport struct {
	inj  *Injector
	gen  *generation
	rank int
	tr   mp.Transport
}

// check applies the rank's armed deterministic faults: a stall sleeps
// (released by EndWorld), a crash fails the operation.
func (t *transport) check() error {
	t.gen.mu.Lock()
	crashed := t.gen.crashed[t.rank]
	stall := t.gen.stalled[t.rank]
	t.gen.mu.Unlock()
	if stall > 0 {
		t.sleep(stall)
	}
	if crashed {
		return fmt.Errorf("%w (rank %d)", ErrCrashed, t.rank)
	}
	return nil
}

// sleep blocks for d or until the incarnation is torn down.
func (t *transport) sleep(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-t.gen.done:
	}
}

// Send implements mp.Transport.
func (t *transport) Send(to, tag int, payload []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	if t.inj.roll(t.inj.cfg.ResetProb) {
		return fmt.Errorf("%w (rank %d send to %d)", ErrReset, t.rank, to)
	}
	if t.inj.roll(t.inj.cfg.DelayProb) {
		t.sleep(t.inj.delay(t.inj.cfg.maxDelay()))
	}
	return t.tr.Send(to, tag, payload)
}

// Recv implements mp.Transport.
func (t *transport) Recv(from, tag int, timeout time.Duration) ([]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if t.inj.roll(t.inj.cfg.ResetProb) {
		return nil, fmt.Errorf("%w (rank %d recv from %d)", ErrReset, t.rank, from)
	}
	return t.tr.Recv(from, tag, timeout)
}
