package fleet

import (
	"fmt"
	"testing"

	"sortlast/internal/server"
)

// Quantization boundary behavior: angles within half a step of a grid
// point share its bucket, the midpoint rounds away from the lower
// bucket, the circle wraps, and negative angles alias their positive
// equivalents.
func TestQuantizeDegBoundaries(t *testing.T) {
	const step = 0.5
	cases := []struct {
		a, b float64
		same bool
	}{
		{0, 0.24, true},     // inside the half-step band
		{0.24, 0.26, false}, // straddles the 0.25 midpoint
		{0.26, 0.5, true},   // both round to bucket 1
		{0.25, 0.5, true},   // midpoint rounds up (away from zero)
		{-0.2, 0.2, true},   // negative aliases across zero
		{359.9, 0.1, true},  // top bucket wraps onto bucket 0
		{360.0, 0.0, true},  // full turn aliases
		{-360.0, 0.0, true},
		{725.1, 5.1, true},   // multiple turns alias
		{30.0, 30.49, false}, // 30.49 rounds to 30.5's bucket
		{30.0, 30.24, true},
	}
	for _, tc := range cases {
		qa, qb := quantizeDeg(tc.a, step), quantizeDeg(tc.b, step)
		if (qa == qb) != tc.same {
			t.Errorf("quantizeDeg(%g)=%d vs quantizeDeg(%g)=%d: same=%v, want %v",
				tc.a, qa, tc.b, qb, qa == qb, tc.same)
		}
	}
}

// The key normalizes the empty method onto the server default and keeps
// everything that changes rendered bytes.
func TestQuantKeyNormalization(t *testing.T) {
	base := server.Request{Dataset: "cube", Width: 64, Height: 64, RotY: 30}
	k1 := quantKey(base, 0.5)
	withDefault := base
	withDefault.Method = server.DefaultMethod
	if k1 != quantKey(withDefault, 0.5) {
		t.Error("empty method and the explicit default produced different keys")
	}
	shaded := base
	shaded.Shaded = true
	if k1 == quantKey(shaded, 0.5) {
		t.Error("shading is not in the key")
	}
	deadline := base
	deadline.DeadlineMS = 5000
	if k1 != quantKey(deadline, 0.5) {
		t.Error("the request deadline leaked into the cache key")
	}
}

func entryFor(dataset, method string, rot float64, n int) *cacheEntry {
	key := quantKey(server.Request{Dataset: dataset, Method: method, Width: 8, Height: 8, RotY: rot}, 0.5)
	return &cacheEntry{key: key, width: 8, height: 8, gray: make([]byte, n)}
}

// LRU eviction respects the byte budget and evicts the least recently
// used entry first.
func TestCacheLRUByteBudget(t *testing.T) {
	const payload = 1000
	budget := int64(3 * (payload + entryOverhead))
	c := newFrameCache(budget)
	for i := 0; i < 3; i++ {
		if ev := c.put(entryFor("cube", "bs", float64(i*10), payload)); ev != 0 {
			t.Fatalf("put %d evicted %d entries under budget", i, ev)
		}
	}
	if c.entries() != 3 {
		t.Fatalf("entries = %d, want 3", c.entries())
	}
	// Touch entry 0 so entry 1 (rot 10) is the LRU, then overflow.
	if _, ok := c.get(entryFor("cube", "bs", 0, payload).key); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	if ev := c.put(entryFor("cube", "bs", 30, payload)); ev != 1 {
		t.Fatalf("overflow evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(entryFor("cube", "bs", 10, payload).key); ok {
		t.Error("LRU entry (rot 10) survived the eviction")
	}
	if _, ok := c.get(entryFor("cube", "bs", 0, payload).key); !ok {
		t.Error("recently used entry (rot 0) was evicted")
	}
	if c.sizeBytes() > budget {
		t.Errorf("cache holds %d bytes over its %d budget", c.sizeBytes(), budget)
	}
	// An entry larger than the whole budget is refused, not cached.
	if c.put(entryFor("cube", "bs", 99, int(budget))); c.entries() != 3 {
		t.Errorf("oversized entry changed the cache: %d entries", c.entries())
	}
}

// Replacing an existing key must adjust the byte account, not leak it.
func TestCacheReplaceAccounting(t *testing.T) {
	c := newFrameCache(1 << 20)
	c.put(entryFor("cube", "bs", 0, 1000))
	before := c.sizeBytes()
	c.put(entryFor("cube", "bs", 0, 500))
	if c.entries() != 1 {
		t.Fatalf("entries = %d after replace, want 1", c.entries())
	}
	if got, want := c.sizeBytes(), before-500; got != want {
		t.Errorf("bytes = %d after shrinking replace, want %d", got, want)
	}
}

// A hit returns the exact stored bytes (the byte-identity guarantee is
// the whole point of an exact-key cache).
func TestCacheHitReturnsStoredBytes(t *testing.T) {
	c := newFrameCache(1 << 20)
	e := entryFor("cube", "bs", 42, 64)
	for i := range e.gray {
		e.gray[i] = byte(i * 7)
	}
	c.put(e)
	got, ok := c.get(e.key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	for i := range e.gray {
		if got.gray[i] != byte(i*7) {
			t.Fatalf("byte %d differs: %d != %d", i, got.gray[i], byte(i*7))
		}
	}
	if fmt.Sprintf("%p", got.gray) != fmt.Sprintf("%p", e.gray) {
		t.Error("hit copied the payload; entries should be shared read-only")
	}
}

func qualityKey(quality string, rot float64) cacheKey {
	return quantKey(server.Request{
		Dataset: "cube", Width: 8, Height: 8, RotY: rot, Quality: quality,
	}, 0.5)
}

// Quality is part of the cache key and contracts never answer for one
// another: a full request must not be served a preview entry, and a
// preview request is served only by its own key because its bytes are
// a different geometry.
func TestCacheQualityKeying(t *testing.T) {
	c := newFrameCache(1 << 20)
	full := &cacheEntry{key: qualityKey("", 0), gray: make([]byte, 64)}
	c.put(full)

	// "" and "full" share the key.
	if k := qualityKey(server.QualityFull, 0); k != full.key {
		t.Errorf("explicit full keys differently from the default: %+v vs %+v", k, full.key)
	}
	if _, ok := c.get(qualityKey(server.QualityPreview, 0)); ok {
		t.Error("preview lookup was served a full-quality entry")
	}
	// An unknown contract keys as itself: it can only miss, and the
	// replica answers it with bad_request.
	if _, ok := c.get(qualityKey("bogus", 0)); ok {
		t.Error("unknown-quality lookup was served a full-quality entry")
	}

	// The reverse direction: with only a preview entry cached, a full
	// request misses and the preview request hits its own entry.
	preview := &cacheEntry{key: qualityKey(server.QualityPreview, 10), gray: make([]byte, 64)}
	c.put(preview)
	if _, ok := c.get(qualityKey("", 10)); ok {
		t.Fatal("a full request was served a preview entry")
	}
	if e, ok := c.get(qualityKey(server.QualityPreview, 10)); !ok || e != preview {
		t.Error("exact preview entry missed")
	}
}
