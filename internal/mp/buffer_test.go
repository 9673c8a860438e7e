package mp

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"
)

func TestSizeClass(t *testing.T) {
	seen := map[int]int{}
	for _, n := range []int{minPooled, minPooled + 1, 1280, 1281, 4096, 288 << 10, 1 << 20, 1<<20 + 1, maxPooled - 1, maxPooled} {
		idx, size := sizeClass(n)
		if size < n || size-n > size/4 {
			t.Errorf("sizeClass(%d) = %d: must hold n and waste under a quarter", n, size)
		}
		if idx < 0 || idx >= len(pools) {
			t.Fatalf("sizeClass(%d): pool index %d out of range", n, idx)
		}
		if other, ok := seen[idx]; ok && other != size {
			t.Errorf("pool %d serves both %d and %d bytes", idx, other, size)
		}
		seen[idx] = size
		// A buffer's own capacity is the fixed point Release recognises.
		if i2, s2 := sizeClass(size); i2 != idx || s2 != size {
			t.Errorf("sizeClass(%d) = (%d,%d), want the class itself (%d,%d)", size, i2, s2, idx, size)
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
	Release(make([]byte, 10))
	Release(make([]byte, 3000)) // not a class size: ignored
	buf := grab(5000)
	for i := range buf {
		buf[i] = 1
	}
	alias := buf[:cap(buf)]
	Release(buf[4:]) // a re-sliced tail has another capacity: ignored
	if alias[100] != 1 {
		t.Fatal("a re-sliced tail was pooled")
	}
	Release(buf)
	if poisonReleased && (alias[0] != 0xFF || alias[len(alias)-1] != 0xFF) {
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
