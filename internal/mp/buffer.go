package mp

import "sortlast/internal/pool"

// Receive buffers have exactly one owner at a time. A transport takes a
// buffer from the process's byte pool (pool.Bytes), fills it and hands
// it to the mailbox; Recv hands it to the caller; the caller may give it
// back with Release once its decoder has consumed the bytes. A caller
// that never releases leaves the buffer to the garbage collector, which
// is always correct — only the three per-frame consumers in
// internal/core (swapLoop, its fold's core rank included, ownerMerge,
// GatherImage's root) release, and they are what keeps a standing world
// from allocating per message. A pooled buffer's contents are
// unspecified: its taker overwrites all of its bytes.

// Release returns a buffer obtained from Recv, Sendrecv or Gather to the
// byte pool. The caller must own buf, must pass the whole buffer, must
// release it at most once and must not read or write it — or any slice
// of it — afterwards: the next message of its size class is written
// into the same memory. Releasing is optional; nil and buffers
// below the pooled range are ignored.
func Release(buf []byte) { pool.Bytes.Put(buf) }
