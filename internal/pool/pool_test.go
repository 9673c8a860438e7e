package pool

import (
	"sync"
	"testing"
)

// Both pools in the tree, pixels (2^6..2^22) and message bytes
// (2^10..2^26), index their classes densely: a class holds n and wastes
// under a quarter, one index serves one size, and a class's own size is
// its fixed point, so storage cut to a class size goes back to it.
func TestSizeClass(t *testing.T) {
	for _, r := range []struct{ minLog, maxLog int }{{6, 22}, {10, 26}} {
		c := New(r.minLog, r.maxLog, byte(0))
		lo, hi := 1<<r.minLog, 1<<r.maxLog
		seen := map[int]int{}
		for _, n := range []int{lo, lo + 1, lo * 5 / 4, lo*5/4 + 1, 4096, 65536 + 1, 288 << 10, 1 << 20, 1<<20 + 1, hi - 1, hi} {
			if !c.pooled(n) {
				continue
			}
			idx, size := c.class(n)
			if size < n || size-n > size/4 {
				t.Errorf("2^%d..2^%d: class(%d) = %d: must hold n and waste under a quarter", r.minLog, r.maxLog, n, size)
			}
			if idx < 0 || idx >= len(c.classes) {
				t.Fatalf("2^%d..2^%d: class(%d): index %d out of range", r.minLog, r.maxLog, n, idx)
			}
			if other, ok := seen[idx]; ok && other != size {
				t.Errorf("2^%d..2^%d: class %d serves both %d and %d", r.minLog, r.maxLog, idx, other, size)
			}
			seen[idx] = size
			if i2, s2 := c.class(size); i2 != idx || s2 != size {
				t.Errorf("class(%d) = (%d,%d), want the class itself (%d,%d)", size, i2, s2, idx, size)
			}
		}
		if idx, _ := c.class(hi); idx != len(c.classes)-1 {
			t.Errorf("2^%d..2^%d: the largest size takes class %d of %d", r.minLog, r.maxLog, idx, len(c.classes))
		}
		if c.pooled(lo-1) || c.pooled(hi+1) {
			t.Errorf("2^%d..2^%d: a size outside the range is pooled", r.minLog, r.maxLog)
		}
	}
}

// A miss allocates exactly the elements asked for while the request's
// class and the next hold nothing, so kept storage is never oversized.
// Once the class holds only storage too short for the request, the miss
// allocates the class's full size, which every later request of the
// class fits. The race detector drops pooled items at random, so the
// second case asks for one full-size miss in a handful of attempts.
func TestMissTakesClassSizeOnlyInARecycledClass(t *testing.T) {
	const n = 20000
	c := New(6, 22, 0.0)
	_, size := c.class(n)
	if s, reused := c.Get(n); reused || len(s) != n || cap(s) != n {
		t.Fatalf("miss in an empty class: len %d cap %d reused %v, want both %d and a miss", len(s), cap(s), reused, n)
	}
	full := false
	for try := 0; try < 20 && !full; try++ {
		c = New(6, 22, 0.0)
		c.Put(make([]float64, n-100))
		s, reused := c.Get(n)
		if reused || len(s) != n || (cap(s) != n && cap(s) != size) {
			t.Fatalf("try %d: len %d cap %d reused %v, want len %d, cap %d or %d, a miss", try, len(s), cap(s), reused, n, n, size)
		}
		full = cap(s) == size
	}
	if !full {
		t.Errorf("a miss in a class holding only short storage never took the class size %d", size)
	}
}

// A warm Get and Put allocate nothing: Get keeps the emptied box of the
// storage it takes, and Put fills a kept box instead of a new one.
func TestWarmGetPutAllocatesNothing(t *testing.T) {
	if poisonReleased {
		t.Skip("the race detector drops pooled items at random")
	}
	c := New(10, 26, byte(0xFF))
	for _, n := range []int{1 << 10, 5000, 300 << 10} {
		c.Put(make([]byte, n))
		if a := testing.AllocsPerRun(100, func() {
			s, _ := c.Get(n)
			c.Put(s)
		}); a != 0 {
			t.Errorf("%d bytes: %g allocations per warm Get + Put, want 0", n, a)
		}
	}
}

// Storage has one owner at a time: goroutines that draw, fill, check
// and give back storage of one class at once never see each other's
// bytes, whichever boxes and slices the pool hands around.
func TestConcurrentOwnersDoNotShare(t *testing.T) {
	c := New(10, 26, byte(0xFF))
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s, _ := c.Get(2000 + i%100)
				for j := range s {
					s[j] = mark
				}
				for j := range s {
					if s[j] != mark {
						t.Errorf("goroutine %d: byte %d reads %d", mark, j, s[j])
						return
					}
				}
				c.Put(s)
			}
		}(byte(g))
	}
	wg.Wait()
}
