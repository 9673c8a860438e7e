package mp

import "fmt"

// The collective algorithms below are written against rawComm so the
// in-process and TCP transports share them. Their tags are at or above
// TagLimit, which is how a transport wrapper tells them from the
// compositing algorithm's own messages — the only ones the paper's cost
// model charges.

// barrier is a dissemination barrier: ceil(log2 P) rounds, in round k each
// rank signals (rank + 2^k) mod P and waits for (rank - 2^k) mod P. It
// works for any P, not just powers of two.
func barrier(c rawComm) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	for k, off := 0, 1; off < p; k, off = k+1, off*2 {
		to := (c.Rank() + off) % p
		from := (c.Rank() - off + p) % p
		if err := c.sendRaw(to, tagBarrier+k, nil); err != nil {
			return err
		}
		if _, err := c.recvRaw(from, tagBarrier+k); err != nil {
			return fmt.Errorf("barrier round %d: %w", k, err)
		}
	}
	return nil
}

// gather collects every rank's payload at root (flat algorithm; worlds in
// this system are at most a few hundred ranks).
func gather(c rawComm, root int, payload []byte) ([][]byte, error) {
	p := c.Size()
	if err := checkPeer(root, p); err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, c.sendRaw(root, tagGather, payload)
	}
	out := make([][]byte, p)
	out[root] = append([]byte(nil), payload...)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		msg, err := c.recvRaw(r, tagGather)
		if err != nil {
			return nil, fmt.Errorf("gather from %d: %w", r, err)
		}
		out[r] = msg
	}
	return out, nil
}
