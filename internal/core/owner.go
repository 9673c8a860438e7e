package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// DefaultTile is dfb's tile edge: big enough that per-tile framing stays
// small against pixel payloads, small enough that a compact foreground
// still spreads across owners.
const DefaultTile = 64

// ownerMerge is the owner-routed schedule, the Distributed FrameBuffer
// view of sort-last compositing (Usher et al.): the frame is cut into
// tiles with static owners, one route round ships every owner the
// encoded part of the sender's bounding rectangle that falls in its
// tiles, and each owner then merges what it received with its own
// pixels in depth order. Exactly P-1 messages leave every rank — an
// owner with nothing to receive still gets an empty message — so
// receives are deterministic without barriers, and sends are buffered
// (mp.Comm.Send never blocks), so the fan-out completes before any rank
// starts its merge: no cyclic waits at any P.
//
// Only per-rank geometry is needed, never stage pairing or the fold, so
// the schedule runs at any rank count. Correctness rests on one
// argument: each rank's subimage enters its owner's accumulation in the
// decomposition's global front-to-back order. The rank boxes form a BSP
// of the volume, so that order is a valid per-pixel order for every
// pixel, and skipping a blank pixel is exact under the over operator.
//
// With tile 0 the tiles are P horizontal strips, one per rank, and a
// message is one codec region (direct, ds). With a positive tile edge
// they are the square tiles of a partition.Tiling, dealt round-robin
// (tile t to rank t mod P), and a message batches the regions of all
// the owner's tiles that carry foreground: [u32 count] then per region
// [u32 tile][codec region] (dfb). Tile ownership depends only on the
// grid and P, so a sparse frame ships only the tiles it touches.
//
// An owner holds exactly what it owns: one accumulator per owned strip
// or tile, sized to that rectangle once — by the first contribution to
// reach it, the rank's own pixels or a received entry — and never
// regrown; a tile nothing reaches has no pixel storage. That first
// contribution lands in blank storage, so it is stored rather than
// composited (into), bit for bit the same; every later one goes behind
// through the over operator. dfb's tiles are dealt round-robin, so a
// single accumulator would stretch over almost the whole frame on every
// rank; per tile, frame.Image's "storage limited to Bounds keeps 64-rank
// runs affordable" holds for dfb as it does for the swap schedule. The accumulators leave as the Result's
// Parts, and GatherImage gives them back to the frame pool, so the next
// frame's owners accumulate in the same memory.
type ownerMerge struct {
	name  string // stats.Rank.Method
	tag   int
	codec regionCodec
	tile  int
}

// tiling cuts the frame into owner tiles: tile t belongs to rank t mod P.
type tiling struct {
	full frame.Rect
	p, n int
	grid *partition.Tiling // nil: P horizontal strips
}

func newTiling(full frame.Rect, tile, p int) (tiling, error) {
	if tile == 0 {
		return tiling{full: full, p: p, n: p}, nil
	}
	grid, err := partition.NewTiling(full, tile)
	if err != nil {
		return tiling{}, err
	}
	return tiling{full: full, p: p, n: grid.NumTiles(), grid: grid}, nil
}

// rect returns tile i's pixels.
func (t tiling) rect(i int) frame.Rect {
	if t.grid != nil {
		return t.grid.Rect(i)
	}
	return stripRect(t.full, i, t.p)
}

// stripRect returns strip r of p over the full frame. Strips are
// horizontal bands of near-equal height; with p > height the trailing
// strips are empty, which is valid (their owners receive nothing and own
// nothing).
func stripRect(full frame.Rect, r, p int) frame.Rect {
	h := full.Dy()
	return frame.Rect{
		X0: full.X0, Y0: full.Y0 + r*h/p,
		X1: full.X1, Y1: full.Y0 + (r+1)*h/p,
	}.Canon()
}

// Composite implements Compositor.
func (m *ownerMerge) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	p, me := c.Size(), c.Rank()
	full := img.Full()
	til, err := newTiling(full, m.tile, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.name, err)
	}
	st := &stats.Rank{RankID: me, Method: m.name}
	var timer stats.Timer
	tr := c.Tracer()
	ar := getArena()
	defer putArena(ar)
	// Stage 1 carries the route round (encode + sends), stage 2 the merge
	// pass (receives + composites), mirroring the two cost terms of the
	// owner-routed cost models, so spans and counters break down per
	// stage instead of into one degenerate stage.
	merge := st.StageAt(2)
	route := st.StageAt(1)
	route.Label, merge.Label = trace.StageRoute, trace.StageMerge

	c.SetStage(route.Label)
	bm := tr.Begin()
	timer.Start()
	br, scanned := img.BoundingRect(full)
	timer.Stop()
	tr.End(bm, trace.SpanBound, "")
	st.BoundScan = scanned

	em := tr.Begin()
	for dst := 0; dst < p; dst++ {
		if dst == me {
			continue
		}
		timer.Start()
		payload := m.encodeFor(ar, img, til, dst, br, route)
		timer.Stop()
		if err := c.Send(dst, m.tag, payload); err != nil {
			return nil, fmt.Errorf("%s: send to %d: %w", m.name, dst, err)
		}
		ar.codec.Retain(payload)
		route.MsgsSent++
		route.BytesSent += len(payload)
	}
	tr.End(em, trace.SpanEncode, route.Label)
	// Umbrella span (Name == Stage), the per-stage measured total the
	// reports sum — the counterpart of the swap schedule's stageK spans.
	tr.End(em, route.Label, route.Label)

	// acc[i] accumulates owned region i — the strip, or tile me+i·P —
	// front contributions first, so each new region goes behind what is
	// already composited.
	own := make([]frame.Rect, 0, (til.n-me+p-1)/p)
	for t := me; t < til.n; t += p {
		own = append(own, til.rect(t))
	}
	acc := make([]*frame.Image, len(own))
	for i := range acc {
		acc[i] = frame.NewImage(full.Dx(), full.Dy())
	}
	c.SetStage(merge.Label)
	cm := tr.Begin()
	for _, src := range dec.DepthOrder(viewDir) {
		if src == me {
			timer.Start()
			for i, tile := range own {
				if r := tile.Intersect(br); !r.Empty() {
					merge.Composited += into(acc[i], tile).image(acc[i], img, r)
				}
			}
			timer.Stop()
			continue
		}
		recv, err := c.Recv(src, m.tag)
		if err != nil {
			return nil, fmt.Errorf("%s: recv from %d: %w", m.name, src, err)
		}
		merge.MsgsRecv++
		merge.BytesRecv += len(recv)
		timer.Start()
		err = m.mergeFrom(acc, til, me, recv, merge)
		timer.Stop()
		mp.Release(recv) // the codec is done with the bytes
		if err != nil {
			return nil, fmt.Errorf("%s: from %d: %w", m.name, src, err)
		}
	}
	tr.End(cm, trace.SpanComposite, merge.Label)
	tr.End(cm, merge.Label, merge.Label)
	c.SetStage("")
	st.CompWall = timer.Total()

	res := &Result{Full: full, Parts: acc, Own: RectSetOwn{Rs: own}, Stats: st, pooled: true}
	if m.tile == 0 {
		res.Own = RectOwn{R: own[0]}
	}
	return res, nil
}

// owned returns the batch of tiles rank r owns.
func (t tiling) owned(r int) batch {
	return batch{first: r, step: t.p, n: t.n, rect: t.rect}
}

// encodeFor builds the message for owner dst in arena scratch.
func (m *ownerMerge) encodeFor(ar *arena, img *frame.Image, til tiling, dst int,
	br frame.Rect, route *stats.Stage) []byte {
	buf := ar.codec.Grab(0)
	if m.tile == 0 {
		return m.codec.encode(buf, ar, img, region{rect: til.rect(dst)}, br, route)
	}
	return til.owned(dst).encode(buf, m.codec, ar, func(int) *frame.Image { return img }, br, route)
}

// into sizes accumulator acc to its tile for a contribution and returns
// how the contribution is written: behind the pixels already there, or,
// for the first one to reach acc — its Bounds still empty, so its
// storage blank — stored.
func into(acc *frame.Image, tile frame.Rect) (w write) {
	if acc.Bounds().Empty() {
		w = store
	}
	acc.GrowExact(tile)
	return w // behind, the zero write, otherwise
}

// mergeFrom validates one received message and writes its regions into
// the accumulators, behind the pixels already there.
func (m *ownerMerge) mergeFrom(acc []*frame.Image, til tiling, me int, recv []byte,
	merge *stats.Stage) error {
	// The first entry to reach a region sizes its accumulator — only
	// once the rectangle header the codec is about to re-read has passed
	// its check, so forged bytes allocate nothing.
	entry := func(key int, keep region, body []byte) ([]byte, error) {
		r, _, err := readRect(body, keep.rect)
		if err != nil {
			return nil, err
		}
		out, w := acc[(key-me)/til.p], behind
		if !r.Empty() {
			w = into(out, keep.rect)
		}
		_, rest, err := m.codec.decode(out, keep, body, w, merge)
		return rest, err
	}
	if m.tile == 0 {
		return whole(entry(me, region{rect: til.rect(me)}, recv))
	}
	return til.owned(me).decode(recv, merge, entry)
}
