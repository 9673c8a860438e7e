package core

import (
	"sync"

	"sortlast/internal/rle"
)

// arena bundles the per-rank scratch a schedule and its codec reuse
// across stages: a wire buffer and a run-length writer with its code
// and row scratch. Stage exchange regions shrink monotonically, so
// the storage sized by stage 1 serves every later stage without
// reallocating; mp.Comm.Send copies payloads, which makes handing the
// same buffer to consecutive sends safe. Each Composite call checks an
// arena out of a shared pool for its exclusive use — concurrent ranks
// never share scratch, and successive composites over a standing
// communicator reuse warm buffers instead of allocating fresh ones per
// frame.
type arena struct {
	// buf is the wire buffer: every payload is appended to buf[:0], and
	// the grown payload is kept as buf = payload[:0] once sent.
	buf []byte
	rle rle.Writer
	// iv double-buffers interval scratch for the interleaved split: each
	// stage splits the previous stage's kept set, which aliases one of
	// these slices, so the split alternates between the two pairs —
	// stage k writes pair (k%2)*2 while reading from the other pair.
	iv [4][]Interval
	// cs, tops, ends and active are the gather root's scratch for
	// checking ownership disjoint (disjoint): the claims, the sweep's two
	// orders of them, and the claims crossing the sweep line.
	cs, active []claim
	tops, ends []uint64
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena  { return arenaPool.Get().(*arena) }
func putArena(a *arena) { arenaPool.Put(a) }
