package mp

import (
	"testing"
)

func BenchmarkSendrecvPairs(b *testing.B) {
	for _, size := range []int{1024, 128 * 1024} {
		name := "1KB"
		if size > 1024 {
			name = "128KB"
		}
		b.Run(name, func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			err := Run(2, testOpts(), func(c Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := c.Sendrecv(c.Rank()^1, 1, payload); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(map[int]string{4: "P4", 16: "P16"}[p], func(b *testing.B) {
			err := Run(p, testOpts(), func(c Comm) error {
				for i := 0; i < b.N; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkGather(b *testing.B) {
	const p = 8
	payload := make([]byte, 4096)
	err := Run(p, testOpts(), func(c Comm) error {
		for i := 0; i < b.N; i++ {
			if _, err := c.Gather(0, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorldSetup measures the fixed allocation cost of building and
// joining an 8-rank world with no traffic.
func BenchmarkWorldSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Run(8, testOpts(), func(c Comm) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendrecvAllocs measures the per-message allocation cost of the
// binary-swap exchange pattern over a persistent world: the required
// payload copy plus queue bookkeeping, with mailbox storage and the
// deadline watchdog reused across rounds.
func BenchmarkSendrecvAllocs(b *testing.B) {
	const p = 8
	payload := make([]byte, 1<<16)
	b.ReportAllocs()
	err := Run(p, testOpts(), func(c Comm) error {
		for i := 0; i < b.N; i++ {
			for s := 0; s < 3; s++ {
				if _, err := c.Sendrecv(c.Rank()^(1<<s), 7, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
