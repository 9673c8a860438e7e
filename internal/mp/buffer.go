package mp

import (
	"math/bits"
	"sync"
)

// Receive buffers have exactly one owner at a time. A transport takes a
// buffer from the size-classed pool below, fills it and hands it to the
// mailbox; Recv hands it to the caller; the caller may give it back with
// Release once its decoder has consumed the bytes. A caller that never
// releases leaves the buffer to the garbage collector, which is always
// correct — only the four per-frame consumers in internal/core
// (swapLoop, ownerMerge, the fold pre-stage's core rank, GatherImage's
// root) release, and they are what keeps a standing world from
// allocating per message.
//
// The pools are sync.Pools, so an idle world pins nothing: two
// collections empty them.

const (
	// minPooled is the smallest pooled capacity: a message below it
	// (rectangle headers, barrier tokens) costs less to
	// allocate than to pool.
	minPooled = 1 << minPooledLog
	// maxPooled is the largest: 64 MiB is a 2048x2048 frame at 16
	// bytes per pixel; anything larger is allocated as needed.
	maxPooled = 1 << maxPooledLog

	minPooledLog, maxPooledLog = 10, 26
)

// pools holds one pool per size class; see sizeClass for the indexing.
var pools [4 * (maxPooledLog - minPooledLog + 1)]sync.Pool

// sizeClass returns the pool index and the capacity of the smallest
// class that holds n bytes, minPooled <= n <= maxPooled. There are four
// classes per power of two (2^e x 1.25, 1.5, 1.75, 2), so a buffer
// wastes under a quarter of its capacity.
func sizeClass(n int) (idx, size int) {
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	quarter := 1 << (e - 2)
	j := (n - 1<<e + quarter - 1) / quarter // 1..4
	return 4*(e-minPooledLog+1) + j - 1, 1<<e + j*quarter
}

// grab returns a buffer of length n for one incoming message, reusing a
// released buffer of the same size class when there is one. The
// contents are unspecified: the caller overwrites all n bytes.
func grab(n int) []byte {
	if n < minPooled || n > maxPooled {
		return make([]byte, n)
	}
	idx, size := sizeClass(n)
	if p, _ := pools[idx].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return make([]byte, n, size)
}

// Release returns a buffer obtained from Recv, Sendrecv or Gather to the
// receive-buffer pool. The caller must own buf, must release it at most
// once and must not read or write it — or any slice of it — afterwards:
// the next message of its size class is written into the same memory.
// Releasing is optional, and releasing a buffer the pool did not hand
// out (or a re-sliced tail of one) is harmless.
func Release(buf []byte) {
	c := cap(buf)
	if c < minPooled || c > maxPooled {
		return
	}
	idx, size := sizeClass(c)
	if size != c {
		return
	}
	buf = buf[:c]
	if poisonReleased {
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	pools[idx].Put(&buf)
}
