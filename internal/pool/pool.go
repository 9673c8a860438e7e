// Package pool recycles short-lived slices by size class: the pixel
// storage of images (internal/frame) and the process's byte storage
// (Bytes): the receive buffers of messages (internal/mp), which
// sort-last-sparse compositing pushes through every rank, and the
// reply bytes of the serving tier.
//
// Storage has one owner at a time. The owner draws it with Get and may
// give it back with Put once nothing will read it again; storage never
// given back is left to the garbage collector, which is always correct.
// The classes are sync.Pools, so an idle process pins nothing: two
// collections empty them.
package pool

import (
	"math/bits"
	"sync"
)

// Bytes is the process's one pool of byte storage, 1 KiB (below it,
// rectangle headers and barrier tokens cost less to allocate than to
// pool) up to 64 MiB, a 2048x2048 frame at 16 bytes per pixel: mp's
// receive buffers, renderd's reply payloads and the client's preview
// reads. Race builds poison released bytes with 0xFF.
var Bytes = New(10, 26, byte(0xFF))

// Classes is a free list of []T split into four size classes per power
// of two (2^e x 1.25, 1.5, 1.75, 2), from 2^minLog to 2^maxLog
// elements. Smaller requests cost less to allocate than to pool, and
// larger ones are allocated as needed.
type Classes[T any] struct {
	minLog, maxLog int
	// poison is what race builds write over storage given to Put (see
	// poisonReleased).
	poison  T
	classes []sync.Pool // of *[]T; see class for the indexing
	// boxes holds the emptied *[]T headers Get took out of the classes,
	// so that a warm Put allocates nothing.
	boxes sync.Pool
}

// New returns an empty pool of []T for lengths 2^minLog to 2^maxLog,
// minLog >= 3, whose race builds poison released storage with poison.
func New[T any](minLog, maxLog int, poison T) *Classes[T] {
	return &Classes[T]{
		minLog: minLog, maxLog: maxLog, poison: poison,
		classes: make([]sync.Pool, 4*(maxLog-minLog+1)),
	}
}

// pooled reports whether n lies inside the pooled range.
func (c *Classes[T]) pooled(n int) bool {
	return n >= 1<<c.minLog && n <= 1<<c.maxLog
}

// class returns the index and the size of the smallest class that holds
// n elements, which must be pooled. A class wastes under a quarter of
// its size.
func (c *Classes[T]) class(n int) (idx, size int) {
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	quarter := 1 << (e - 2)
	j := (n - 1<<e + quarter - 1) / quarter // 1..4
	return 4*(e-c.minLog+1) + j - 1, 1<<e + j*quarter
}

// Class reports whether n elements are pooled and, if so, the index and
// the size of the class that holds them, where Put files storage of
// capacity n.
func (c *Classes[T]) Class(n int) (idx, size int, ok bool) {
	if !c.pooled(n) {
		return 0, 0, false
	}
	idx, size = c.class(n)
	return idx, size, true
}

// Get returns a slice of length n. It reuses storage from n's class
// when the class holds storage that fits n, or from the next class up,
// whose storage always does; reused reports which, and reused storage
// holds whatever its last owner left there. A miss allocates exactly n,
// so storage its caller keeps is never rounded up to a class size —
// unless n's class held only storage too short for n: that class is
// being recycled, and a miss there allocates the class's full size,
// which every later request of the class fits. Otherwise requests just
// under a class's size miss whenever their sizes move, and what a caller
// allocates depends on which slice a request happens to draw.
func (c *Classes[T]) Get(n int) (s []T, reused bool) {
	if !c.pooled(n) {
		return make([]T, n), false
	}
	idx, size := c.class(n)
	s, short := c.take(idx, n)
	if s == nil && idx+1 < len(c.classes) {
		s, _ = c.take(idx+1, n)
	}
	switch {
	case s != nil:
		return s, true
	case short:
		return make([]T, n, size), false
	}
	return make([]T, n), false
}

// maxProbe bounds how many pooled slices take looks at in one class
// before it gives up.
const maxProbe = 8

// take draws pooled slices from class idx until one holds n and returns
// it, cut to n; the ones too short go back. short reports whether it
// saw any of those.
func (c *Classes[T]) take(idx, n int) (s []T, short bool) {
	var tooShort [maxProbe]*[]T
	k := 0
	for k < maxProbe {
		p, _ := c.classes[idx].Get().(*[]T)
		if p == nil {
			break
		}
		if cap(*p) >= n {
			s = (*p)[:n]
			*p = nil
			c.boxes.Put(p)
			break
		}
		tooShort[k] = p
		k++
	}
	for _, p := range tooShort[:k] {
		c.classes[idx].Put(p)
	}
	return s, k > 0
}

// Put files s under the smallest class that holds its capacity. The
// caller must own s, must give it back at most once and must not read
// or write it, or any slice of it, afterwards: the next Get of its class
// hands out the same memory. Storage outside the pooled range is left
// to the garbage collector.
func (c *Classes[T]) Put(s []T) {
	n := cap(s)
	if !c.pooled(n) {
		return
	}
	idx, _ := c.class(n)
	s = s[:n]
	if poisonReleased {
		for i := range s {
			s[i] = c.poison
		}
	}
	p, _ := c.boxes.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	*p = s
	c.classes[idx].Put(p)
}
