package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// swapLoop is the binary-swap schedule of Ma et al. (§3.1), the loop
// all of the paper's methods share: at stage k paired ranks split the
// region they own, exchange the halves they give up, and composite the
// received half over or under the half they keep, so after log P stages
// every rank owns 1/P of the final image. The methods differ only in
// the codec that turns a half into bytes — and in whether the split
// cuts the block at alternating centerlines or, for the load-balanced
// codecs, deals interleaved sections of the pixel sequence. When P is
// not a power of two, the decomposition's extra ranks fold into the
// core first (fold), and the stages run over the core.
type swapLoop struct {
	name  string // stats.Rank.Method, "+fold" appended when ranks fold
	codec regionCodec
	// interleave selects the statically load-balanced split (§3.3):
	// sections of granularity pixels (0: one scanline of the full
	// frame, the paper's Figure 6 arrangement) alternate between the
	// partners, balancing non-blank pixels between them.
	interleave  bool
	granularity int
}

// Composite implements Compositor.
func (m *swapLoop) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	me := c.Rank()
	st := &stats.Rank{RankID: me, Method: m.name}
	var timer stats.Timer
	tr := c.Tracer()
	ar := getArena()
	defer putArena(ar)
	full := img.Full()
	if dec.Extras() > 0 {
		st.Method += "+fold"
		c.SetStage("fold")
		if err := fold(c, dec, viewDir, img, ar, st, &timer); err != nil {
			return nil, err
		}
		if dec.IsExtra(me) {
			st.CompWall = timer.Total()
			// Extra ranks own nothing; they still join the final gather.
			return &Result{Full: full, Parts: []*frame.Image{img}, Own: RectOwn{}, Stats: st}, nil
		}
	}
	own := region{rect: full}
	if m.interleave {
		// Stage 1 writes iv[2] and iv[3], so iv[0] can hold its input.
		ar.iv[0] = append(ar.iv[0][:0], Interval{Lo: 0, Hi: full.Area()})
		own.iv = ar.iv[0]
	}

	// The bounding rectangle is found once (the O(A) scan of algorithm
	// steps 3-4); every stage then updates it in O(1).
	var br frame.Rect
	if m.codec.bounded() {
		bm := tr.Begin()
		timer.Start()
		br, st.BoundScan = img.BoundingRect(full)
		timer.Stop()
		tr.End(bm, trace.SpanBound, "")
	}

	for stage := 1; stage <= dec.Stages(); stage++ {
		s := st.StageAt(stage)
		c.SetStage(s.Label)
		sm := tr.Begin()

		em := tr.Begin()
		timer.Start()
		keep, send := m.split(ar, own, stage, dec.Side(me, dec.StageLevel(stage)) == 0)
		payload := m.codec.encode(ar.buf[:0], ar, img, send, br, s)
		timer.Stop()
		tr.End(em, trace.SpanEncode, s.Label)

		recv, err := c.Sendrecv(dec.Partner(me, stage), tagSwap, payload)
		if err != nil {
			return nil, fmt.Errorf("%s: stage %d: %w", m.name, stage, err)
		}
		ar.buf = payload[:0]
		s.BytesSent, s.MsgsSent = len(payload), 1
		s.BytesRecv, s.MsgsRecv = len(recv), 1

		cm := tr.Begin()
		timer.Start()
		got, err := decodeWhole(m.codec, img, keep, recv, order(dec.RankInFront(dec.Partner(me, stage), stage, viewDir)), s)
		timer.Stop()
		if !s.RecvRectEmpty { // an empty rectangle has no composite slice
			tr.End(cm, trace.SpanComposite, s.Label)
		}
		mp.Release(recv) // the codec is done with the bytes
		if err != nil {
			return nil, fmt.Errorf("%s: stage %d: %w", m.name, stage, err)
		}
		tr.End(sm, s.Label, s.Label)

		// Step 21: what is left of the local rectangle in the kept half,
		// joined with the rectangle the received foreground lies in.
		br = br.Intersect(keep.rect).Union(got)
		own = keep
	}
	st.CompWall = timer.Total()
	if m.interleave {
		// own.iv aliases pooled arena scratch; the Result outlives it.
		owned := IntervalOwn{W: full.Dx(), Iv: append([]Interval(nil), own.iv...)}
		return &Result{Full: full, Parts: []*frame.Image{img}, Own: owned, Stats: st}, nil
	}
	return &Result{Full: full, Parts: []*frame.Image{img}, Own: RectOwn{R: own.rect}, Stats: st}, nil
}

// fold is the exchange in front of the stages when P is not a power of
// two: an extra rank ships its whole subimage, one rectRLE region (the
// BSBRC message format), to its core partner, which composites it over
// or under its own in depth order. Its counters land in st.Fold.
func fold(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64, img *frame.Image,
	ar *arena, st *stats.Rank, timer *stats.Timer) error {
	me, full := c.Rank(), img.Full()
	if dec.IsExtra(me) {
		timer.Start()
		br, scanned := img.BoundingRect(full)
		payload := rectRLE{}.encode(ar.buf[:0], ar, img, region{rect: full}, br, &st.Fold)
		timer.Stop()
		st.BoundScan = scanned
		if err := c.Send(dec.FoldPartner(me), tagFold, payload); err != nil {
			return fmt.Errorf("fold: send: %w", err)
		}
		ar.buf = payload[:0]
		st.Fold.MsgsSent, st.Fold.BytesSent = 1, len(payload)
		return nil
	}
	e := dec.FoldPartner(me)
	if e < 0 {
		return nil
	}
	recv, err := c.Recv(e, tagFold)
	if err != nil {
		return fmt.Errorf("fold: recv from %d: %w", e, err)
	}
	st.Fold.MsgsRecv, st.Fold.BytesRecv = 1, len(recv)
	timer.Start()
	_, err = decodeWhole(rectRLE{}, img, region{rect: full}, recv, order(dec.ExtraInFront(me, viewDir)), &st.Fold)
	timer.Stop()
	mp.Release(recv) // the codec is done with the bytes
	if err != nil {
		return fmt.Errorf("fold: from %d: %w", e, err)
	}
	return nil
}

// split divides the region owned going into a stage into the part this
// rank keeps and the part it sends. Both partners hold the same region
// and the rank on the low side of the stage's kd level keeps the first
// part, so they make complementary choices without communicating.
func (m *swapLoop) split(ar *arena, own region, stage int, low bool) (keep, send region) {
	keep, send = own, own
	if m.interleave {
		g := m.granularity
		if g <= 0 {
			g = own.rect.Dx()
		}
		// The split reads own.iv, which aliases the pair the previous
		// stage wrote, so stages alternate between the two pairs.
		pair := (stage % 2) * 2
		ar.iv[pair], ar.iv[pair+1] = splitInterleavedInto(own.iv, g, ar.iv[pair][:0], ar.iv[pair+1][:0])
		keep.iv, send.iv = ar.iv[pair], ar.iv[pair+1]
	} else {
		// Alternating centerlines, horizontal first.
		keep.rect, send.rect = own.rect.Split(stage - 1)
	}
	if !low {
		keep, send = send, keep
	}
	return keep, send
}

// splitInterleavedInto walks the concatenated pixel sequence described
// by iv and deals alternating sections of g pixels to the two outputs:
// sections 0, 2, 4, … to evens, sections 1, 3, 5, … to odds, appending
// into caller-owned scratch. The destinations must not alias iv: the
// split reads iv while writing them.
func splitInterleavedInto(iv []Interval, g int, evens, odds []Interval) ([]Interval, []Interval) {
	appendMerged := func(dst []Interval, lo, hi int) []Interval {
		if n := len(dst); n > 0 && dst[n-1].Hi == lo {
			dst[n-1].Hi = hi
			return dst
		}
		return append(dst, Interval{Lo: lo, Hi: hi})
	}
	pos := 0 // position in the concatenated sequence
	for _, v := range iv {
		lo := v.Lo
		for lo < v.Hi {
			// Remaining room in the current section.
			room := g - pos%g
			n := v.Hi - lo
			if n > room {
				n = room
			}
			if (pos/g)%2 == 0 {
				evens = appendMerged(evens, lo, lo+n)
			} else {
				odds = appendMerged(odds, lo, lo+n)
			}
			lo += n
			pos += n
		}
	}
	return evens, odds
}
