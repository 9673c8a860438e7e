package rle

import (
	"slices"

	"sortlast/internal/frame"
)

// Writer appends a background/foreground encoding in Pack's format
// straight from image rows, copying each foreground pixel once, from the
// image into the wire. Pass 1 (Start, Blank, Pixels) runs SeqEncoder's
// state machine for the codes, counting the foreground instead of
// storing it, and remembers the rows it was fed; pass 2 (Append) sizes
// the buffer once and copies every foreground run from those rows into
// its place in the payload. The zero value is ready to use; a Writer
// keeps its scratch across messages and is not safe for concurrent use.
type Writer struct {
	se   SeqEncoder
	enc  Encoding // the codes; NonBlank stays empty
	rows []fedRow
}

// fedRow is a slice given to Pixels and its position in the sequence.
type fedRow struct {
	seq int
	px  []frame.Pixel
}

// Start begins a new sequence.
func (w *Writer) Start() {
	w.se.count = true
	w.se.Start(&w.enc)
	w.rows = w.rows[:0]
}

// Blank appends n known-blank pixels.
func (w *Writer) Blank(n int) { w.se.Blank(n) }

// Pixels appends px, typically a row of an image; the slice must stay
// unchanged until Append.
func (w *Writer) Pixels(px []frame.Pixel) {
	w.rows = append(w.rows, fedRow{w.enc.Total, px})
	w.se.Pixels(px)
}

// AppendRect appends the encoding of region's pixels — exactly
// EncodeRect's — to buf, as Append does.
func (w *Writer) AppendRect(buf []byte, img *frame.Image, region frame.Rect) (out []byte, codes, pixels int) {
	w.Start()
	feedRect(img, region, w)
	return w.Append(buf)
}

// Append finishes the sequence and appends its packed form to buf,
// byte for byte what Pack appends for the same sequence. It returns the
// extended buffer and the number of codes and foreground pixels in it.
func (w *Writer) Append(buf []byte) (out []byte, codes, pixels int) {
	w.se.Finish()
	codes, pixels = len(w.enc.Codes), w.se.fg
	head := 8 + codes*CodeBytes
	off := len(buf)
	// Grown once, without zeroing: with no NonBlank, Pack appends the
	// framing and codes, and the runs below cover the payload.
	buf = w.enc.Pack(slices.Grow(buf, head+pixels*frame.PixelBytes))
	buf = buf[:off+head+pixels*frame.PixelBytes]
	rows := w.rows
	wire := Wire{total: w.enc.Total, codes: buf[off+8 : off+head], px: buf[off+head:]}
	wire.Runs(func(seq int, px []byte) {
		for len(px) > 0 {
			for seq >= rows[0].seq+len(rows[0].px) {
				rows = rows[1:]
			}
			src := rows[0].px[seq-rows[0].seq:]
			n := min(len(src), len(px)/frame.PixelBytes)
			frame.PutPixels(px, src[:n])
			px, seq = px[n*frame.PixelBytes:], seq+n
		}
	})
	clear(w.rows) // the rows are the caller's: pooled scratch keeps no pointer into them
	return buf, codes, pixels
}
