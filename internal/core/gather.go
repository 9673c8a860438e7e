package core

import (
	"cmp"
	"fmt"
	"slices"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// gatherForm is how one rank's owned pixels travel in the final gather.
// The gather is one more route round over the region codecs the
// schedules already use, chosen by ownership kind: a rectangle is one
// rectRLE region, a rectangle set a batch of them keyed by position in
// the set (a rectangle without foreground is not shipped), an interval
// set one intervalRLE region.
type gatherForm struct {
	codec   regionCodec
	regions []region
	batched bool
}

func formOf(own Ownership, full frame.Rect) (gatherForm, error) {
	switch own := own.(type) {
	case RectOwn:
		return gatherForm{codec: rectRLE{}, regions: []region{{rect: own.R}}}, nil
	case RectSetOwn:
		regions := make([]region, len(own.Rs))
		for i, r := range own.Rs {
			regions[i].rect = r
		}
		return gatherForm{codec: rectRLE{batched: true}, regions: regions, batched: true}, nil
	case IntervalOwn:
		return gatherForm{codec: intervalRLE{}, regions: []region{{rect: full, iv: own.Iv}}}, nil
	}
	return gatherForm{}, fmt.Errorf("core: ownership %T has no gather form", own)
}

func (f gatherForm) batch() batch {
	return batch{step: 1, n: len(f.regions), rect: func(i int) frame.Rect { return f.regions[i].rect }}
}

// bound returns the bounding rectangle of the owned foreground —
// parts[i] holds region i — found by one scan of the owned regions: the
// rectangle codecs put it on the wire, and the root sizes its image from
// it, so it pays to be tight. An interval set is bounded by the
// scanlines it touches.
func (f gatherForm) bound(parts []*frame.Image) frame.Rect {
	var br frame.Rect
	for i, r := range f.regions {
		if r.iv != nil {
			br = br.Union(intervalRows(r.rect.Dx(), r.iv).Intersect(parts[i].Bounds()))
			continue
		}
		b, _ := parts[i].BoundingRect(r.rect)
		br = br.Union(b)
	}
	return br
}

// encode appends the owned pixels, which lie inside br, to buf.
func (f gatherForm) encode(buf []byte, ar *arena, parts []*frame.Image, br frame.Rect, s *stats.Stage) []byte {
	if f.batched {
		return f.batch().encode(buf, f.codec, ar, func(i int) *frame.Image { return parts[i] }, br, s)
	}
	return f.codec.encode(buf, ar, parts[0], f.regions[0], br, s)
}

// decode parses what encode wrote, handing each region on the wire
// (and its index among the form's regions) to entry, and rejects
// trailing bytes.
func (f gatherForm) decode(body []byte, s *stats.Stage,
	entry func(i int, keep region, body []byte) (rest []byte, err error)) error {
	if f.batched {
		return f.batch().decode(body, s, entry)
	}
	return whole(entry(0, f.regions[0], body))
}

// span returns the rectangle decoding body will grow the root's image
// to: the union of the rectangle headers on the wire, or the scanlines
// of an interval set. A malformed body yields some smaller rectangle;
// decode reports the error.
func (f gatherForm) span(body []byte) frame.Rect {
	var span frame.Rect
	var scratch stats.Stage
	f.decode(body, &scratch, func(_ int, keep region, body []byte) ([]byte, error) {
		if keep.iv != nil {
			span = intervalRows(keep.rect.Dx(), keep.iv)
			return nil, nil
		}
		r, body, err := readRect(body, keep.rect)
		if err != nil || r.Empty() {
			return body, err
		}
		span = span.Union(r)
		_, rest, err := rle.ParseWire(body)
		return rest, err
	})
	return span
}

// store decodes body into final, which must be blank over the form's
// regions: the sender's owned pixels, and nothing outside its owned
// regions whatever body holds.
func (f gatherForm) store(final *frame.Image, body []byte, s *stats.Stage) error {
	return f.decode(body, s, func(_ int, keep region, body []byte) ([]byte, error) {
		_, rest, err := f.codec.decode(final, keep, body, store, s)
		return rest, err
	})
}

// claims appends the rectangles rank's regions cover to cs, in region
// order, empty ones left out: a rectangle as it is, an interval set as
// the piece of each scanline it covers.
func (f gatherForm) claims(rank int, cs []claim) []claim {
	for i, r := range f.regions {
		if r.iv != nil {
			rowSegments(r.rect.Dx(), r.iv, func(y, x0, x1 int) {
				cs = append(cs, claim{frame.Rect{X0: x0, Y0: y, X1: x1, Y1: y + 1}, rank, i})
			})
		} else if !r.rect.Empty() {
			cs = append(cs, claim{r.rect, rank, i})
		}
	}
	return cs
}

// claim is a rectangle of pixels a rank owns, in its region part.
type claim struct {
	r          frame.Rect
	rank, part int
}

// overlapError is the gather root's refusal of two owned regions that
// share pixels — of two ranks, or twice the same rank. The root stores
// every owned pixel instead of compositing it, which is exact only
// because ownership is disjoint.
type overlapError struct{ a, b claim }

func (e *overlapError) Error() string {
	return fmt.Sprintf("core: gather: rank %d's %v overlaps rank %d's %v", e.a.rank, e.a.r, e.b.rank, e.b.r)
}

// disjoint returns an *overlapError for the first two of the claims in
// ar.cs found to overlap, nil when they are pairwise disjoint; ar.cs
// keeps its order. It sweeps the scanlines top to bottom, taking the
// claims by top edge and retiring them by bottom edge (both orders
// sorted as packed integer keys): the claims crossing the sweep line
// are kept sorted by left edge and, until an overlap turns up, are
// disjoint, so a new claim need only be checked against its two
// neighbours there — O(n log n) comparisons for n claims.
func disjoint(ar *arena) error {
	tops, ends := ar.tops[:0], ar.ends[:0]
	for i, c := range ar.cs {
		tops = append(tops, uint64(c.r.Y0)<<32|uint64(i))
		ends = append(ends, uint64(c.r.Y1)<<32|uint64(i))
	}
	slices.Sort(tops)
	slices.Sort(ends)
	ar.tops, ar.ends, ar.active = tops, ends, ar.active[:0]
	byX0 := func(a claim, x int) int { return cmp.Compare(a.r.X0, x) }
	for _, top := range tops {
		c := ar.cs[uint32(top)]
		for ; len(ends) > 0 && int(ends[0]>>32) <= c.r.Y0; ends = ends[1:] {
			i, _ := slices.BinarySearchFunc(ar.active, ar.cs[uint32(ends[0])].r.X0, byX0)
			ar.active = slices.Delete(ar.active, i, i+1)
		}
		i, _ := slices.BinarySearchFunc(ar.active, c.r.X0, byX0)
		for _, n := range ar.active[max(i-1, 0):min(i+1, len(ar.active))] {
			if n.r.X0 < c.r.X1 && c.r.X0 < n.r.X1 {
				return &overlapError{n, c}
			}
		}
		ar.active = slices.Insert(ar.active, i, c)
	}
	return nil
}

// parsePart splits one rank's gather message into the form its
// descriptor names — validated against the frame — and the encoded
// pixels that follow.
func parsePart(part []byte, full frame.Rect) (gatherForm, []byte, error) {
	own, body, err := ParseOwnership(part)
	if err == nil {
		err = own.Validate(full)
	}
	if err != nil {
		return gatherForm{}, nil, err
	}
	f, err := formOf(own, full)
	return f, body, err
}

// GatherImage assembles the distributed final image at root from every
// rank's composited result; the image is the caller's, and non-root
// ranks receive nil. Each rank's message is its ownership descriptor
// followed by its owned pixels in the descriptor's gatherForm, so the
// root needs no knowledge of the compositor that produced the
// distribution. The root allocates the image once, to the rectangle the
// received headers and its own pixels span, and stores every owned
// pixel — its own parts and each received region, through the codecs'
// own decoders — instead of compositing it: over blank storage the two
// are equal bit for bit (frame.StoreRow), and each pixel has one owner.
// That last holds only for disjoint ownership, so before the image
// exists the root checks every rank's owned regions against every
// other's and refuses an overlap with an *overlapError. The exchange is
// counted in res.Stats.Gather.
//
// The gather consumes res: what core allocated, core releases. On
// return, whatever the outcome, parts the schedule allocated (the
// owner-merge accumulators) are back in the frame pool, blank with
// empty Bounds. A part that is the caller's subimage is left alone, so
// a working image restored with CopyFrom every frame keeps its storage.
func GatherImage(c mp.Comm, root int, res *Result) (*frame.Image, error) {
	full := res.Full
	st := &res.Stats.Gather
	*st = stats.Stage{Label: trace.StageGather}
	tr := c.Tracer()
	c.SetStage(st.Label)
	gm := tr.Begin()
	defer func() {
		if res.pooled {
			for _, part := range res.Parts {
				part.Release()
			}
		}
		tr.End(gm, trace.SpanGather, st.Label)
		c.SetStage("")
	}()
	mine, err := formOf(res.Own, full)
	if err != nil {
		return nil, err
	}

	if c.Rank() != root {
		ar := getArena()
		defer putArena(ar)
		em := tr.Begin()
		payload := mine.encode(res.Own.AppendWire(ar.buf[:0]), ar, res.Parts, mine.bound(res.Parts), st)
		tr.End(em, trace.SpanEncode, st.Label)
		_, err := c.Gather(root, payload)
		ar.buf = payload[:0]
		st.BytesSent, st.MsgsSent = len(payload), 1
		return nil, err
	}

	ar := getArena()
	defer putArena(ar)
	// The root's own pixels go straight from its parts: no encode, and
	// nothing for the collective to copy.
	parts, err := c.Gather(root, nil)
	if err != nil {
		return nil, err
	}
	// Every descriptor is parsed and validated, the owned regions
	// checked disjoint, and the final image allocated, before a pixel is
	// stored.
	own := mine.bound(res.Parts)
	span := own
	forms := make([]gatherForm, len(parts))
	bodies := make([][]byte, len(parts))
	ar.cs = mine.claims(root, ar.cs[:0])
	nMine := len(ar.cs)
	for r, part := range parts {
		if r == root {
			continue
		}
		if forms[r], bodies[r], err = parsePart(part, full); err != nil {
			return nil, fmt.Errorf("core: gather from rank %d: %w", r, err)
		}
		span = span.Union(forms[r].span(bodies[r]))
		ar.cs = forms[r].claims(r, ar.cs)
	}
	if err := disjoint(ar); err != nil {
		return nil, err
	}
	final := frame.NewImage(full.Dx(), full.Dy())
	final.GrowExact(span)

	cm := tr.Begin()
	for _, c := range ar.cs[:nMine] {
		st.Composited += final.StoreImage(res.Parts[c.part], c.r.Intersect(own))
	}
	for r, part := range parts {
		if r == root {
			continue
		}
		st.MsgsRecv++
		st.BytesRecv += len(part)
		err := forms[r].store(final, bodies[r], st)
		mp.Release(part) // the codec is done with the bytes
		if err != nil {
			return nil, fmt.Errorf("core: gather from rank %d: %w", r, err)
		}
	}
	tr.End(cm, trace.SpanComposite, st.Label)
	return final, nil
}
