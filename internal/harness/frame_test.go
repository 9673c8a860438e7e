package harness

import (
	"bytes"
	"testing"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/stats"
)

// TestFrame runs one rank-side frame for every method at a folded and a
// power-of-two rank count: rank 0's tally is complete when its Frame
// returns, every subimage comes back released, and the root image is
// the validated one-shot run's, byte for byte.
func TestFrame(t *testing.T) {
	for _, p := range []int{3, 4} {
		for _, m := range core.Names() {
			cfg := smallCfg(m, p)
			plan, err := NewPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Validate = true
			_, want, err := RunWithImage(cfg)
			if err != nil {
				t.Fatalf("%s P=%d: one-shot: %v", m, p, err)
			}

			var tally Tally
			ranks := make([]*stats.Rank, p)
			released := make([]bool, p)
			var got *frame.Image
			var wire int64
			var composite, gather time.Duration
			err = mp.Run(p, mp.Options{}, func(c mp.Comm) error {
				img := plan.RenderRank(c.Rank())
				out, rs, err := plan.Frame(c, img, &tally)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					got, wire = out, tally.WireBytes.Load()
					composite, gather = time.Duration(tally.Composite.Load()), tally.Gather
				}
				ranks[c.Rank()], released[c.Rank()] = rs, img.Bounds().Empty()
				return nil
			})
			if err != nil {
				t.Fatalf("%s P=%d: %v", m, p, err)
			}

			var sum int64
			for r, rs := range ranks {
				sum += int64(rs.BytesReceived())
				if !released[r] {
					t.Errorf("%s P=%d: rank %d's subimage was not released", m, p, r)
				}
			}
			if wire != sum || sum == 0 {
				t.Errorf("%s P=%d: rank 0's tally read %d wire bytes, the ranks received %d", m, p, wire, sum)
			}
			if composite <= 0 || gather <= 0 {
				t.Errorf("%s P=%d: rank 0's tally read composite %v, gather %v", m, p, composite, gather)
			}
			full := want.Full()
			if !bytes.Equal(frame.EncodeRegion(got, full, nil), frame.EncodeRegion(want, full, nil)) {
				t.Errorf("%s P=%d: Frame's root image differs from the validated one-shot run's", m, p)
			}
		}
	}
}
