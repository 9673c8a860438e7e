package fleet

import (
	"container/list"
	"math"

	"sortlast/internal/server"
)

// The frame cache serves dashboard-style repeat traffic without
// touching a world: requests are keyed by their camera quantized to a
// configurable angular step, and an exact quantized-camera hit returns
// the cached encoded frame bytes. Entries are evicted LRU under a byte
// budget, and a dataset change invalidates per (dataset, method)
// without flushing unrelated entries.

// DefaultQuantDeg is the camera quantization step in degrees. Requests
// whose rotations land in the same step share a cache entry; the step
// is deliberately finer than any dashboard's camera grid, so identical
// repeat requests hit while animated sweeps miss.
const DefaultQuantDeg = 0.25

// cacheKey identifies one quantized camera configuration. Everything
// that changes the rendered bytes is in the key; the request deadline
// is not.
type cacheKey struct {
	dataset string
	method  string
	width   int
	height  int
	shaded  bool
	qx, qy  int
	// quality is the contract of the bytes behind the key — the
	// delivered quality on insert, the requested quality on lookup.
	// Contracts never answer for one another: preview bytes have
	// different geometry than full ones.
	quality string
}

// quantizeDeg maps an angle in degrees onto its quantization bucket.
// Angles are normalized into [0, 360) first, so -0.1 and 359.9 share a
// bucket and full turns alias, and the top bucket wraps onto bucket 0.
func quantizeDeg(deg, step float64) int {
	if step <= 0 {
		step = DefaultQuantDeg
	}
	n := math.Mod(deg, 360)
	if n < 0 {
		n += 360
	}
	buckets := int(math.Round(360 / step))
	if buckets < 1 {
		buckets = 1
	}
	return int(math.Round(n/step)) % buckets
}

// quantKey builds the cache key for a request. The empty
// method is normalized to the server default so "bsbrc" and "" share an
// entry. Methods key apart although all of them composite
// byte-identical images, so invalidation can be method-scoped.
func quantKey(req server.Request, step float64) cacheKey {
	method := req.Method
	if method == "" {
		method = server.DefaultMethod
	}
	// "" and "full" share a key; an invalid name keys as itself — it
	// can only miss, and the replica answers it with bad_request.
	quality := req.Quality
	if q, err := server.NormalizeQuality(quality); err == nil {
		quality = q
	}
	return cacheKey{
		dataset: req.Dataset,
		method:  method,
		width:   req.Width,
		height:  req.Height,
		shaded:  req.Shaded,
		qx:      quantizeDeg(req.RotX, step),
		qy:      quantizeDeg(req.RotY, step),
		quality: quality,
	}
}

// cacheEntry is one cached frame: the reply dimensions plus the raw
// gray payload exactly as a replica returned it, so a hit is
// byte-identical to the render that populated it.
type cacheEntry struct {
	key           cacheKey
	width, height int
	gray          []byte
}

// entryOverhead approximates the bookkeeping bytes per entry charged
// against the byte budget on top of the pixel payload.
const entryOverhead = 128

func (e *cacheEntry) size() int64 { return int64(len(e.gray)) + entryOverhead }

// frameCache is an LRU byte-budgeted map from quantized camera keys to
// encoded frames. Not safe for concurrent use; the gateway guards it
// with one mutex (hits copy nothing and are O(1), so the critical
// section is tiny next to a render).
type frameCache struct {
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *cacheEntry
	index    map[cacheKey]*list.Element

	// gen guards put against resurrecting invalidated entries: every
	// invalidation bumps it, a serve snapshots it (generation) before
	// dispatching, and a put whose snapshot is stale is dropped — the
	// render raced an invalidation and may have read the old dataset.
	// Hedge losers reaped after a winner are already never inserted
	// (their replies are never read), so this closes the remaining
	// insert-after-invalidate window.
	gen uint64
}

func newFrameCache(maxBytes int64) *frameCache {
	return &frameCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		index:    make(map[cacheKey]*list.Element),
	}
}

// get returns the cached entry for key, refreshing its recency.
func (c *frameCache) get(key cacheKey) (*cacheEntry, bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// generation returns the invalidation generation to snapshot before a
// dispatch whose result will be offered to put.
func (c *frameCache) generation() uint64 { return c.gen }

// put inserts or replaces the entry for key and evicts LRU entries
// until the byte budget holds again, reporting how many entries were
// evicted. gen must be the generation snapshotted before the render
// that produced e was dispatched: a stale generation means an
// invalidation ran in between and the entry is dropped instead of
// resurrecting stale bytes. Replacing an existing key swaps the value
// in place — the budget is charged the size difference, never twice, so
// a duplicate insert (e.g. a repeated render of the same camera) cannot
// double-charge. An entry larger than the whole budget is not cached.
func (c *frameCache) put(e *cacheEntry, gen uint64) (evicted int) {
	if gen != c.gen || e.size() > c.maxBytes {
		return 0
	}
	if el, ok := c.index[e.key]; ok {
		c.bytes += e.size() - el.Value.(*cacheEntry).size()
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.index[e.key] = c.ll.PushFront(e)
		c.bytes += e.size()
	}
	for c.bytes > c.maxBytes {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

func (c *frameCache) removeElement(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.size()
}

// invalidate removes every entry for dataset; a non-empty method
// restricts the sweep to that method's entries. It returns the number
// of entries removed. This is the dataset-change hook: a mutated or
// reloaded dataset must not serve stale frames.
func (c *frameCache) invalidate(dataset, method string) int {
	// Bump the generation before sweeping so any in-flight render
	// dispatched before this point can no longer insert (see put) —
	// regardless of whether its key matched the sweep.
	c.gen++
	removed := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.dataset == dataset && (method == "" || e.key.method == method) {
			c.removeElement(el)
			removed++
		}
	}
	return removed
}

func (c *frameCache) entries() int     { return len(c.index) }
func (c *frameCache) sizeBytes() int64 { return c.bytes }
