package core

import (
	"encoding/binary"
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
)

// region is a set of frame pixels a schedule moves as one unit: a block,
// or — when iv is non-nil — the interleaved subset of the block's
// row-major pixel sequence that the load-balanced split deals out.
type region struct {
	rect frame.Rect
	iv   []Interval
}

// regionCodec owns one wire format end to end: how a region of an image
// becomes bytes, how received bytes are validated and composited into
// the receiver's image, and which stats.Stage counters the format
// feeds. Counters accumulate, so a schedule that sends several regions
// in one round passes the same stage to each call. The schedules own
// everything else — pairing, tags, byte and message counts, spans.
type regionCodec interface {
	// bounded reports whether the format ships the sender's bounding
	// rectangle, so the schedule must find it first and track it.
	bounded() bool
	// encode appends send's pixels to buf. br bounds img's non-blank
	// pixels (bounded codecs only; others ignore it).
	encode(buf []byte, ar *arena, img *frame.Image, send region, br frame.Rect, s *stats.Stage) []byte
	// decode parses one payload for keep from the front of recv and
	// writes it into img as w says. It returns the rectangle the
	// received foreground lies in (bounded codecs) and the bytes after
	// the payload; nothing outside keep is written, whatever recv holds.
	decode(img *frame.Image, keep region, recv []byte, w write, s *stats.Stage) (frame.Rect, []byte, error)
}

// write is how a decoder puts received pixels into the receiver's
// image: composited behind the pixels there or in front of them, or
// stored. A store is for storage the caller knows is blank — the gather
// root's image, an owner-merge accumulator's first contribution — where
// it equals compositing behind bit for bit (frame.StoreRow) without
// reading the destination. Each returns the non-blank count.
type write uint8

const (
	behind write = iota
	inFront
	store
)

// order is the compositing write for received pixels in front of the
// local ones or behind them.
func order(front bool) write {
	if front {
		return inFront
	}
	return behind
}

// row writes the first len(dst) wire pixels of px into dst.
func (w write) row(dst []frame.Pixel, px []byte) int {
	if w == store {
		return frame.StoreRow(dst, px)
	}
	return frame.CompositeRow(dst, px, w == inFront)
}

// rect writes the wire pixels of r, row-major, into img, grown to r.
func (w write) rect(img *frame.Image, r frame.Rect, px []byte) int {
	if w == store {
		return img.StoreWire(r, px)
	}
	return img.CompositeWire(r, px, w == inFront)
}

// image writes src's pixels over r into dst.
func (w write) image(dst, src *frame.Image, r frame.Rect) int {
	if w == store {
		return dst.StoreImage(src, r)
	}
	return dst.CompositeImage(src, r, w == inFront)
}

// decodeWhole decodes a message that must be exactly one payload.
func decodeWhole(c regionCodec, img *frame.Image, keep region, recv []byte, w write,
	s *stats.Stage) (frame.Rect, error) {
	got, rest, err := c.decode(img, keep, recv, w, s)
	return got, whole(rest, err)
}

// whole rejects the bytes a message has left after its last region.
func whole(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	return err
}

func appendRect(buf []byte, r frame.Rect) []byte {
	var rb [frame.RectBytes]byte
	frame.PutRect(rb[:], r)
	return append(buf, rb[:]...)
}

// readRect parses a rectangle header and checks it against the region
// it must lie in.
func readRect(buf []byte, within frame.Rect) (frame.Rect, []byte, error) {
	if len(buf) < frame.RectBytes {
		return frame.ZR, nil, fmt.Errorf("short message (%d bytes)", len(buf))
	}
	r := frame.GetRect(buf)
	if !within.ContainsRect(r) {
		return frame.ZR, nil, fmt.Errorf("received rect %v outside %v", r, within)
	}
	return r, buf[frame.RectBytes:], nil
}

// parseRLE parses one packed run-length encoding that must cover total
// pixels from the front of body.
func parseRLE(body []byte, total int) (rle.Wire, []byte, error) {
	e, rest, err := rle.ParseWire(body)
	if err != nil {
		return e, nil, err
	}
	if e.Total() != total {
		return e, nil, fmt.Errorf("encoding covers %d pixels, region has %d", e.Total(), total)
	}
	return e, rest, nil
}

// raw is plain binary swap's format (§3.1): every pixel of the region,
// blanks included, 16 bytes each.
type raw struct{}

func (raw) bounded() bool { return false }

func (raw) encode(buf []byte, _ *arena, img *frame.Image, send region, _ frame.Rect, s *stats.Stage) []byte {
	s.SentPixels += send.rect.Area()
	return frame.EncodeRegion(img, send.rect, buf)
}

func (raw) decode(img *frame.Image, keep region, recv []byte, w write, s *stats.Stage) (frame.Rect, []byte, error) {
	n := keep.rect.Area() * frame.PixelBytes
	if len(recv) < n {
		return frame.ZR, nil, fmt.Errorf("got %d bytes for %d pixels", len(recv), keep.rect.Area())
	}
	s.RecvPixels += keep.rect.Area()
	s.Composited += w.rect(img, keep.rect, recv[:n])
	return frame.ZR, recv[n:], nil
}

// rectRaw is the bounding-rectangle format (§3.2): the part of the
// sender's bounding rectangle inside the region (four short integers, 8
// bytes) followed by the raw pixels inside it. An empty rectangle costs
// only the header.
type rectRaw struct{}

func (rectRaw) bounded() bool { return true }

func (rectRaw) encode(buf []byte, _ *arena, img *frame.Image, send region, br frame.Rect, s *stats.Stage) []byte {
	sr := br.Intersect(send.rect)
	buf = appendRect(buf, sr)
	if sr.Empty() {
		s.SendRectEmpty = true
		return buf
	}
	s.SentPixels += sr.Area()
	return frame.EncodeRegion(img, sr, buf)
}

func (rectRaw) decode(img *frame.Image, keep region, recv []byte, w write, s *stats.Stage) (frame.Rect, []byte, error) {
	r, body, err := readRect(recv, keep.rect)
	if err != nil {
		return r, nil, err
	}
	if r.Empty() {
		s.RecvRectEmpty = true
		return r, body, nil
	}
	n := r.Area() * frame.PixelBytes
	if len(body) < n {
		return r, nil, fmt.Errorf("%d body bytes for rect %v", len(body), r)
	}
	s.RecvPixels += r.Area()
	s.Composited += w.rect(img, r, body[:n])
	return r, body[n:], nil
}

// rectRLE is the paper's best format (§3.4): the rectangle header, then
// the run-length codes and non-blank pixels of the rectangle only — the
// encoder scans A_send pixels instead of the whole region, and blanks
// inside a sparse rectangle stay off the wire. In a batch of several
// regions per message (dfb) a region without foreground is scanned but
// not shipped, so an empty one on the wire is malformed.
type rectRLE struct{ batched bool }

func (rectRLE) bounded() bool { return true }

func (c rectRLE) encode(buf []byte, ar *arena, img *frame.Image, send region, br frame.Rect, s *stats.Stage) []byte {
	sr := br.Intersect(send.rect)
	if sr.Empty() {
		if c.batched {
			return buf
		}
		s.SendRectEmpty = true
		return appendRect(buf, sr)
	}
	s.Encoded += sr.Area() // every pixel of the rectangle is scanned
	out, codes, pixels := ar.rle.AppendRect(appendRect(buf, sr), img, sr)
	if c.batched && pixels == 0 {
		return buf
	}
	s.Codes += codes
	s.SentPixels += pixels
	return out
}

func (c rectRLE) decode(img *frame.Image, keep region, recv []byte, w write, s *stats.Stage) (frame.Rect, []byte, error) {
	r, body, err := readRect(recv, keep.rect)
	if err != nil {
		return r, nil, err
	}
	if r.Empty() {
		if c.batched {
			return r, nil, fmt.Errorf("empty region in a batch")
		}
		s.RecvRectEmpty = true
		return r, body, nil
	}
	e, rest, err := parseRLE(body, r.Area())
	if err != nil {
		return r, nil, err
	}
	s.RecvPixels += r.Area()
	img.GrowExact(r)
	dx := r.Dx()
	s.Composited += compositeRuns(img, e, w, func(seq int) (y, x, n int) {
		return r.Y0 + seq/dx, r.X0 + seq%dx, dx - seq%dx
	})
	return r, rest, nil
}

// compositeRuns writes every foreground run of e into img as w says and
// returns the runs' pixel count. at maps a sequence position to its
// pixel's row y and column x and the number of pixels from there on
// that lie contiguous in that row; each run is cut at those boundaries,
// and each piece goes through one row kernel.
func compositeRuns(img *frame.Image, e rle.Wire, w write, at func(seq int) (y, x, n int)) int {
	total := 0
	e.Runs(func(seq int, px []byte) {
		total += len(px) / frame.PixelBytes
		for len(px) > 0 {
			y, x, n := at(seq)
			n = min(n, len(px)/frame.PixelBytes)
			w.row(img.Row(y, x, x+n), px[:n*frame.PixelBytes])
			px, seq = px[n*frame.PixelBytes:], seq+n
		}
	})
	return total
}

// batch frames several codec regions as one message: [u32 count] then,
// per region that carries foreground, [u32 key][codec region]. The
// regions a message may carry are keys first, first+step, … below n —
// an owner's tiles on the route round, a rank's owned rectangles in the
// gather — and rect maps a key to its pixels.
type batch struct {
	first, step, n int
	rect           func(key int) frame.Rect
}

// encode appends the message for the batch's regions to buf; img maps a
// key to the image holding that region's pixels.
func (b batch) encode(buf []byte, c regionCodec, ar *arena, img func(key int) *frame.Image,
	br frame.Rect, s *stats.Stage) []byte {
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	count := 0
	for k := b.first; k < b.n; k += b.step {
		entry := c.encode(appendU32(buf, uint32(k)), ar, img(k), region{rect: b.rect(k)}, br, s)
		if len(entry) == len(buf)+4 {
			continue // no foreground in this region: nothing shipped
		}
		buf = entry
		count++
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(count))
	if count == 0 {
		s.SendRectEmpty = true
	}
	return buf
}

// decode validates one message and hands each entry's key — checked to
// be one of the batch's — region and bytes to entry, which returns the
// bytes after the entry.
func (b batch) decode(recv []byte, s *stats.Stage,
	entry func(key int, keep region, body []byte) (rest []byte, err error)) error {
	count, recv, err := readU32(recv)
	if err != nil {
		return err
	}
	if count == 0 {
		s.RecvRectEmpty = true
	}
	for i := 0; i < int(count); i++ {
		var key uint32
		if key, recv, err = readU32(recv); err != nil {
			return err
		}
		k := int(key)
		if k < b.first || k >= b.n || (k-b.first)%b.step != 0 {
			return fmt.Errorf("region %d is not mine", key)
		}
		if recv, err = entry(k, region{rect: b.rect(k)}, recv); err != nil {
			return err
		}
	}
	return whole(recv, nil)
}

// intervalRLE is the load-balanced format (§3.3): the pixels of an
// interleaved interval set, in sequence order, as background/foreground
// run-length codes plus the non-blank pixels.
type intervalRLE struct{}

func (intervalRLE) bounded() bool { return false }

func (intervalRLE) encode(buf []byte, ar *arena, img *frame.Image, send region, _ frame.Rect, s *stats.Stage) []byte {
	ar.rle.Start()
	encodeIntervals(img, img.Full().Dx(), send.iv, &ar.rle)
	buf, codes, pixels := ar.rle.Append(buf)
	s.Encoded += intervalsLen(send.iv) // every pixel of the sent set counts as scanned
	s.Codes += codes
	s.SentPixels += pixels
	return buf
}

func (intervalRLE) decode(img *frame.Image, keep region, recv []byte, wr write, s *stats.Stage) (frame.Rect, []byte, error) {
	keepLen := intervalsLen(keep.iv)
	e, rest, err := parseRLE(recv, keepLen)
	if err != nil {
		return frame.ZR, nil, err
	}
	s.RecvPixels += keepLen
	w := img.Full().Dx()
	// Full-width storage for every touched row, so each piece of a run is
	// one slice of a row.
	img.GrowExact(intervalRows(w, keep.iv))
	cur := intervalCursor{iv: keep.iv}
	s.Composited += compositeRuns(img, e, wr, func(seq int) (y, x, n int) {
		idx := cur.index(seq)
		return idx / w, idx % w, min(cur.iv[cur.i].Hi-idx, w-idx%w)
	})
	return frame.ZR, rest, nil
}

// encodeIntervals feeds the pixels of the interval set, in sequence
// order, to enc: the run-length writer, or the reference SeqEncoder the
// tests compare it with. Everything the image has no storage for goes in
// as arithmetic blank runs instead of materialized blank pixels.
func encodeIntervals(img *frame.Image, w int, iv []Interval, enc rle.Sequence) {
	bounds := img.Bounds()
	rowSegments(w, iv, func(y, x0, x1 int) {
		sx0, sx1 := max(x0, bounds.X0), min(x1, bounds.X1)
		if y < bounds.Y0 || y >= bounds.Y1 || sx0 >= sx1 {
			enc.Blank(x1 - x0)
			return
		}
		enc.Blank(sx0 - x0)
		enc.Pixels(img.Row(y, sx0, sx1))
		enc.Blank(x1 - sx1)
	})
}

// rowSegments calls fn, in sequence order, for every piece [x0, x1) of a
// scanline y that the interval set covers over a frame of width w.
func rowSegments(w int, iv []Interval, fn func(y, x0, x1 int)) {
	for _, v := range iv {
		for i := v.Lo; i < v.Hi; {
			y, x0 := i/w, i%w
			x1 := min(w, v.Hi-y*w) // end of this row segment, clipped to the interval
			i += x1 - x0
			fn(y, x0, x1)
		}
	}
}

func intervalsLen(iv []Interval) int {
	n := 0
	for _, v := range iv {
		n += v.Len()
	}
	return n
}

// intervalRows returns the full-width scanlines the interval set touches
// — the rectangle the interval decoder grows its image to, so that
// per-pixel compositing does not repeatedly reallocate.
func intervalRows(w int, iv []Interval) frame.Rect {
	r := frame.ZR
	for _, v := range iv {
		if v.Len() > 0 {
			r = r.Union(frame.Rect{X0: 0, Y0: v.Lo / w, X1: w, Y1: (v.Hi-1)/w + 1})
		}
	}
	return r
}

// intervalCursor maps sequence positions to linear indices for
// monotonically non-decreasing queries (the order rle.Wire.Runs yields).
type intervalCursor struct {
	iv   []Interval
	i    int // current interval
	base int // sequence position of iv[i].Lo
}

func (c *intervalCursor) index(seq int) int {
	for seq >= c.base+c.iv[c.i].Len() {
		c.base += c.iv[c.i].Len()
		c.i++
	}
	return c.iv[c.i].Lo + (seq - c.base)
}
