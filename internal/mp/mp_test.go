package mp

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func testOpts() Options { return Options{RecvTimeout: 10 * time.Second} }

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, testOpts(), func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		msg, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(msg) != "hello" {
			return fmt.Errorf("got %q", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, testOpts(), func(c Comm) error {
		if c.Rank() == 0 {
			buf := []byte("original")
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "CLOBBER!") // sender reuses its buffer immediately
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		msg, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(msg) != "original" {
			return fmt.Errorf("message aliased sender buffer: %q", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerChannel(t *testing.T) {
	const n = 100
	err := Run(2, testOpts(), func(c Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			msg, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if len(msg) != 1 || msg[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %v", i, msg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsSeparateChannels(t *testing.T) {
	err := Run(2, testOpts(), func(c Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("tag1")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("tag2"))
		}
		// Receive in the opposite order of sending.
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(m1) != "tag1" || string(m2) != "tag2" {
			return fmt.Errorf("tag mixup: %q %q", m1, m2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvPairwiseExchange(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		err := Run(p, testOpts(), func(c Comm) error {
			peer := c.Rank() ^ 1
			out := []byte(fmt.Sprintf("from %d", c.Rank()))
			in, err := c.Sendrecv(peer, 5, out)
			if err != nil {
				return err
			}
			want := fmt.Sprintf("from %d", peer)
			if string(in) != want {
				return fmt.Errorf("got %q want %q", in, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestRecvTimeoutDetectsDeadlock(t *testing.T) {
	start := time.Now()
	err := Run(2, Options{RecvTimeout: 100 * time.Millisecond}, func(c Comm) error {
		if c.Rank() == 0 {
			_, err := c.Recv(1, 9) // never sent
			return err
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout took far too long")
	}
}

func TestInvalidPeerAndTag(t *testing.T) {
	err := Run(2, testOpts(), func(c Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to invalid rank must fail")
		}
		if err := c.Send(0, -1, nil); err == nil {
			return errors.New("negative tag must fail")
		}
		if err := c.Send(0, TagLimit, nil); err == nil {
			return errors.New("tag at limit must fail")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return errors.New("recv from invalid rank must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		var before, after atomic.Int32
		err := Run(p, testOpts(), func(c Comm) error {
			before.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := before.Load(); got != int32(p) {
				return fmt.Errorf("rank %d passed barrier with only %d/%d arrived", c.Rank(), got, p)
			}
			after.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if after.Load() != int32(p) {
			t.Fatalf("P=%d: %d ranks passed", p, after.Load())
		}
	}
}

func TestGatherOrdersByRank(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		for root := 0; root < p; root += 3 {
			err := Run(p, testOpts(), func(c Comm) error {
				payload := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
				got, err := c.Gather(root, payload)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return errors.New("non-root must receive nil")
					}
					return nil
				}
				for r := 0; r < p; r++ {
					want := []byte{byte(r), byte(r * 2)}
					if !bytes.Equal(got[r], want) {
						return fmt.Errorf("slot %d = %v, want %v", r, got[r], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("P=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(3, testOpts(), func(c Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRepanicsOnRankPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected re-panic from rank panic")
		}
	}()
	_ = Run(3, testOpts(), func(c Comm) error {
		if c.Rank() == 2 {
			panic("boom")
		}
		// Other ranks block; the panicking rank must release them.
		_, err := c.Recv((c.Rank()+1)%3, 0)
		return err
	})
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0, Options{}); err == nil {
		t.Error("zero-size world must fail")
	}
	if _, err := NewWorld(-3, Options{}); err == nil {
		t.Error("negative world must fail")
	}
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(2); err == nil {
		t.Error("out-of-range comm must fail")
	}
}
