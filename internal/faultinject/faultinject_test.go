package faultinject

import (
	"errors"
	"testing"
	"time"

	"sortlast/internal/mp"
)

// echoPair builds a 2-rank in-process world with both transports wrapped
// by inj.
func echoPair(inj *Injector) ([]mp.Transport, error) {
	w, err := mp.NewWorld(2, mp.Options{})
	if err != nil {
		return nil, err
	}
	return inj.WrapWorld([]mp.Transport{w.Transport(0), w.Transport(1)}), nil
}

func TestPassThrough(t *testing.T) {
	trs, err := echoPair(New(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Send(1, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := trs[1].Recv(0, 7, time.Second)
	if err != nil || string(msg) != "hi" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
}

func TestCrashFailsAllOps(t *testing.T) {
	inj := New(Config{})
	trs, err := echoPair(inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.Crash(1)
	if err := trs[1].Send(0, 1, nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("crashed Send = %v, want ErrCrashed", err)
	}
	if _, err := trs[1].Recv(0, 1, time.Second); !errors.Is(err, ErrCrashed) {
		t.Errorf("crashed Recv = %v, want ErrCrashed", err)
	}
	// The other rank's transport is unaffected.
	if err := trs[0].Send(1, 1, nil); err != nil {
		t.Errorf("healthy Send = %v", err)
	}
}

// A fresh incarnation starts healthy: crashes armed against the previous
// world do not carry over.
func TestBeginWorldClearsArmedFaults(t *testing.T) {
	inj := New(Config{})
	if _, err := echoPair(inj); err != nil {
		t.Fatal(err)
	}
	inj.Crash(0)
	inj.Stall(1, time.Hour)
	trs, err := echoPair(inj) // WrapWorld calls beginWorld
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- trs[0].Send(1, 1, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Send on fresh incarnation = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh incarnation still stalled or crashed")
	}
}

// EndWorld releases an in-flight stall promptly, so teardown never waits
// out an injected sleep.
func TestEndWorldReleasesStall(t *testing.T) {
	inj := New(Config{})
	trs, err := echoPair(inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.Stall(1, time.Hour)
	done := make(chan error, 1)
	go func() { done <- trs[1].Send(0, 1, nil) }()
	time.Sleep(20 * time.Millisecond) // let the Send enter the stall
	inj.EndWorld()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("EndWorld did not release the stalled Send")
	}
}

// The probabilistic draws are reproducible for a fixed seed.
func TestSeedDeterminism(t *testing.T) {
	draws := func(seed int64) []bool {
		inj := New(Config{Seed: seed, ResetProb: 0.3})
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.roll(inj.cfg.ResetProb)
		}
		return out
	}
	a, b := draws(42), draws(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for the same seed", i)
		}
	}
	c := draws(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draw sequences")
	}
}

func TestResetFailsOp(t *testing.T) {
	inj := New(Config{ResetProb: 1})
	trs, err := echoPair(inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Send(1, 3, nil); !errors.Is(err, ErrReset) {
		t.Errorf("Send under ResetProb=1 = %v, want ErrReset", err)
	}
}
