package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/volume"
)

// corruptingTransport wraps the in-process transport and mangles the
// payload of the Nth algorithm message (tags below mp.TagLimit), so we
// can verify compositors fail cleanly — with an error, never a panic or
// a silent wrong image — on malformed input.
type corruptingTransport struct {
	mp.Transport
	mu     *sync.Mutex
	count  *int
	target int
	mutate func([]byte) []byte
}

func (t *corruptingTransport) Send(to, tag int, payload []byte) error {
	if tag < mp.TagLimit {
		t.mu.Lock()
		*t.count++
		hit := *t.count == t.target
		t.mu.Unlock()
		if hit {
			payload = t.mutate(append([]byte(nil), payload...))
		}
	}
	return t.Transport.Send(to, tag, payload)
}

// runWithCorruption runs the compositor on p ranks with message number
// `target` mutated, and returns the error the world produced.
func runWithCorruption(t *testing.T, comp Compositor, p, target int,
	mutate func([]byte) []byte) error {
	t.Helper()
	root := volume.Box{Hi: [3]int{32, 32, 32}}
	dec, err := partition.Decompose(root, p)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mp.NewWorld(p, mp.Options{RecvTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		tr := &corruptingTransport{
			Transport: w.Transport(r),
			mu:        &mu, count: &count, target: target,
			mutate: mutate,
		}
		c, err := mp.FromTransport(r, p, tr, mp.Options{RecvTimeout: 400 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, c mp.Comm) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("rank %d panicked on corrupt input: %v", r, v)
				}
			}()
			img := sparseImage(int64(r), 32, 32, 0.3)
			_, errs[r] = comp.Composite(c, dec, [3]float64{0, 0, 1}, img)
		}(r, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Every registered method must fail cleanly on a mangled message. The
// one exemption: BS ships raw pixels with no structure, so any byte
// string of the right length is valid data and header garbage is
// undetectable by design; truncation is still caught.
func TestCompositorsRejectCorruptMessages(t *testing.T) {
	mutations := map[string]func([]byte) []byte{
		"truncate": func(b []byte) []byte {
			if len(b) > 3 {
				return b[:len(b)-3]
			}
			return nil
		},
		"garbage-header": func(b []byte) []byte {
			for i := 0; i < len(b) && i < 12; i++ {
				b[i] ^= 0xFF
			}
			return b
		},
	}
	for _, spec := range registry {
		comp := mustNew(t, spec.Name)
		for mname, mutate := range mutations {
			if spec.Name == "bs" && mname == "garbage-header" {
				continue
			}
			err := runWithCorruption(t, comp, 4, 3, mutate)
			if err == nil {
				t.Errorf("%s/%s: corrupt message accepted silently", spec.Name, mname)
				continue
			}
			if strings.Contains(err.Error(), "panic") {
				t.Errorf("%s/%s: %v", spec.Name, mname, err)
			}
		}
	}
}

// A zero-length corrupt frame must also surface as an error, not hang.
// At P=2 plain BS exchanges whole non-empty halves, so it is covered too.
func TestCompositorsRejectEmptyMessages(t *testing.T) {
	for _, spec := range registry {
		err := runWithCorruption(t, mustNew(t, spec.Name), 2, 1, func([]byte) []byte { return nil })
		if err == nil {
			t.Errorf("%s: empty message accepted", spec.Name)
		}
	}
}

// Sanity: without corruption the same scaffolding completes cleanly.
func TestCorruptionHarnessCleanRun(t *testing.T) {
	for _, spec := range registry {
		if err := runWithCorruption(t, mustNew(t, spec.Name), 4, 1<<30, func(b []byte) []byte { return b }); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}
