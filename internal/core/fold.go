package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/stats"
)

// Folded lifts a binary-swap-family compositor to arbitrary rank counts,
// implementing the first future-work item of the paper's §5 ("the number
// of processors must be a power of two"). Extra ranks render the high
// half of a once-more-split core subvolume and, in a fold pre-stage, ship
// their whole subimage (one rectRLE region, the BSBRC message format) to
// their core partner, which pre-composites it.
// The power-of-two core then runs the inner method unchanged; folded
// ranks own nothing and rejoin only for the final gather.
type Folded struct {
	Plan  *partition.FoldPlan
	Inner Compositor
}

// Name implements Compositor.
func (f *Folded) Name() string { return f.Inner.Name() + "+fold" }

// restrictedComm presents the power-of-two core of a larger world to the
// inner compositor. Only point-to-point traffic among core ranks flows
// through it, so overriding Size is sufficient.
type restrictedComm struct {
	mp.Comm
	size int
}

func (r restrictedComm) Size() int { return r.size }

// Composite implements Compositor. The dec argument must be the plan's
// core decomposition (pass Plan.Dec).
func (f *Folded) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if dec != f.Plan.Dec {
		return nil, fmt.Errorf("core: folded compositor needs its plan's decomposition")
	}
	if c.Size() != f.Plan.Size() {
		return nil, fmt.Errorf("core: world has %d ranks, fold plan expects %d",
			c.Size(), f.Plan.Size())
	}
	me := c.Rank()
	c.SetStage("fold")
	full := img.Full()

	if f.Plan.IsExtra(me) {
		st := &stats.Rank{RankID: me, Method: f.Name()}
		var timer stats.Timer
		ar := getArena()
		defer putArena(ar)
		timer.Start()
		br, scanned := img.BoundingRect(full)
		payload := rectRLE{}.encode(ar.codec.Grab(0), ar, img, region{rect: full}, br, &st.Fold)
		timer.Stop()
		st.BoundScan = scanned
		if err := c.Send(f.Plan.FoldPartner(me), tagFold, payload); err != nil {
			return nil, fmt.Errorf("fold: send: %w", err)
		}
		ar.codec.Retain(payload)
		st.Fold.MsgsSent = 1
		st.Fold.BytesSent = len(payload)
		st.CompWall = timer.Total()
		// Folded ranks own nothing; they still join the final gather.
		return &Result{Full: full, Parts: []*frame.Image{img}, Own: RectOwn{}, Stats: st}, nil
	}

	var fold stats.Stage
	var foldTimer stats.Timer
	if e := f.Plan.FoldPartner(me); e >= 0 {
		recv, err := c.Recv(e, tagFold)
		if err != nil {
			return nil, fmt.Errorf("fold: recv from %d: %w", e, err)
		}
		fold.MsgsRecv = 1
		fold.BytesRecv = len(recv)
		foldTimer.Start()
		_, err = decodeWhole(rectRLE{}, img, region{rect: full}, recv, order(f.Plan.ExtraInFront(me, viewDir)), &fold)
		foldTimer.Stop()
		mp.Release(recv) // the codec is done with the bytes
		if err != nil {
			return nil, fmt.Errorf("fold: from %d: %w", e, err)
		}
	}

	res, err := f.Inner.Composite(restrictedComm{Comm: c, size: f.Plan.Core}, dec, viewDir, img)
	if err != nil {
		return nil, err
	}
	res.Stats.Method = f.Name()
	res.Stats.Fold = fold
	res.Stats.CompWall += foldTimer.Total()
	return res, nil
}
