package mp

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"sortlast/internal/pool"
)

// The receive-buffer pool holds 1 KiB up to 64 MiB (a 2048x2048 frame
// at 16 bytes per pixel), each size in a class that holds it, wastes
// under a quarter and serves no other size; a buffer's own capacity is
// the fixed point Release recognises.
func TestSizeClass(t *testing.T) {
	const lo, hi = 1 << 10, 2048 * 2048 * 16
	seen, top := map[int]int{}, -1
	for _, n := range []int{lo, lo + 1, 1280, 1281, 4096, 288 << 10, 1 << 20, 1<<20 + 1, hi - 1, hi} {
		idx, size, ok := pool.Bytes.Class(n)
		if !ok {
			t.Fatalf("Class(%d): not pooled", n)
		}
		if size < n || size-n > size/4 {
			t.Errorf("Class(%d) = %d: must hold n and waste under a quarter", n, size)
		}
		if idx < 0 || idx < top {
			t.Fatalf("Class(%d): index %d out of order after %d", n, idx, top)
		}
		top = idx
		if other, ok := seen[idx]; ok && other != size {
			t.Errorf("class %d serves both %d and %d bytes", idx, other, size)
		}
		seen[idx] = size
		if i2, s2, _ := pool.Bytes.Class(size); i2 != idx || s2 != size {
			t.Errorf("Class(%d) = (%d,%d), want the class itself (%d,%d)", size, i2, s2, idx, size)
		}
	}
	for _, n := range []int{lo - 1, hi + 1} {
		if _, _, ok := pool.Bytes.Class(n); ok {
			t.Errorf("Class(%d): pooled outside the range", n)
		}
	}
}

// A released buffer is what the next receive of its size class gets,
// in process and through PutFrom (the socket path). sync.Pool may drop
// an item (it does so at random under the race detector) or the
// goroutine may migrate between Put and Get, so the test asks for one
// reuse in a handful of attempts, not for every one.
func TestReleaseReusesBuffer(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 300<<10)
	for name, put := range map[string]func(b *Mailbox){
		"Put":     func(b *Mailbox) { b.Put(0, 1, payload) },
		"PutFrom": func(b *Mailbox) { b.PutFrom(0, 1, bytes.NewReader(payload), len(payload)) },
	} {
		b := NewMailbox()
		reused := false
		for try := 0; try < 50 && !reused; try++ {
			put(b)
			first, err := b.Get(0, 1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, payload) {
				t.Fatalf("%s delivered a different payload", name)
			}
			Release(first)
			put(b)
			second, err := b.Get(0, 1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(second, payload) {
				t.Fatalf("%s into a reused buffer delivered a different payload", name)
			}
			reused = &second[0] == &first[0]
		}
		if !reused {
			t.Errorf("%s: a released buffer was never handed to the next same-class receive", name)
		}
	}
}

// Release must tolerate what it was not given by the pool, and under
// the race detector it poisons what it takes, which turns every -race
// test run into a use-after-release detector.
func TestReleaseForeignAndPoison(t *testing.T) {
	Release(nil)
	Release(make([]byte, 10)) // below the pooled range: ignored
	buf, _ := pool.Bytes.Get(5000)
	for i := range buf {
		buf[i] = 1
	}
	alias := buf[:cap(buf)]
	Release(buf)
	if raceEnabled && (alias[0] != 0xFF || alias[len(alias)-1] != 0xFF) {
		t.Error("race build: released buffer not poisoned")
	}
}

// PutFrom must not trust the declared length: a reader that ends early
// costs one read step, not the declared size, and enqueues nothing.
func TestPutFromBoundsAllocation(t *testing.T) {
	b := NewMailbox()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := b.PutFrom(3, 9, bytes.NewReader(make([]byte, 100)), 200<<20)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("short payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readStep {
		t.Errorf("a 100-byte payload declared as 200 MiB allocated %d bytes", grew)
	}
	b.Close()
	if _, err := b.Get(3, 9, 0); err == nil {
		t.Error("a truncated payload was delivered")
	}
}

// Payloads past the first read step arrive intact through the growing
// buffer, at every size around the step and its doublings.
func TestPutFromLargePayloads(t *testing.T) {
	b := NewMailbox()
	for _, n := range []int{0, 1, readStep - 1, readStep, readStep + 1, 2*readStep + 5, 5 * readStep} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := b.PutFrom(1, 2, bytes.NewReader(payload), n); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get(1, 2, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%d-byte payload corrupted in transit", n)
		}
		Release(got)
	}
}
