package rle

import (
	"fmt"

	"sortlast/internal/frame"
)

// This file holds the zero-copy side of the background/foreground codec:
// SeqEncoder/EncodeRect build an Encoding straight from image rows (or
// any pixel stream) into caller-owned slices with no intermediate
// []Pixel sequence, and Wire is a validated view over packed bytes that
// walks foreground pixels without allocating Codes or NonBlank slices.
// Both are bit-identical to the allocating Encode/Unpack pair, which
// remains the tested reference.

// SeqEncoder incrementally encodes a pixel sequence with exactly the
// semantics of Encode — the same maximal-run state machine and the same
// trailing-run trimming — so fused callers produce bit-identical codes
// to Encode over the materialized sequence. Known-blank stretches are
// added arithmetically via Blank, at zero per-pixel cost.
type SeqEncoder struct {
	e          *Encoding
	run        int
	blankPhase bool
}

// Start attaches the encoder to e, truncating e's slices in place so
// their capacity is reused across messages.
func (se *SeqEncoder) Start(e *Encoding) {
	e.Codes = e.Codes[:0]
	e.NonBlank = e.NonBlank[:0]
	e.Total = 0
	se.e = e
	se.run = 0
	se.blankPhase = true
}

// Blank appends n known-blank pixels without scanning anything.
func (se *SeqEncoder) Blank(n int) {
	if n <= 0 {
		return
	}
	if !se.blankPhase {
		se.emit(se.run)
		se.run = 0
		se.blankPhase = true
	}
	se.run += n
	se.e.Total += n
}

// Pixels scans a pixel slice, classifying each as blank or foreground.
func (se *SeqEncoder) Pixels(px []frame.Pixel) {
	for _, p := range px {
		if p.Blank() {
			if !se.blankPhase {
				se.emit(se.run)
				se.run = 0
				se.blankPhase = true
			}
			se.run++
		} else {
			if se.blankPhase {
				se.emit(se.run)
				se.run = 0
				se.blankPhase = false
			}
			se.e.NonBlank = append(se.e.NonBlank, p)
			se.run++
		}
	}
	se.e.Total += len(px)
}

// Finish completes the encoding attached by Start, applying Encode's
// trailing-run trimming rules.
func (se *SeqEncoder) Finish() {
	e := se.e
	if e.Total == 0 {
		return // Encode of an empty sequence emits no codes at all.
	}
	se.emit(se.run)
	se.run = 0
	for len(e.Codes) > 1 && e.Codes[len(e.Codes)-1] == 0 {
		e.Codes = e.Codes[:len(e.Codes)-1]
	}
	if len(e.Codes) > 1 && len(e.Codes)%2 == 1 && e.Codes[len(e.Codes)-1] != 0 {
		e.Codes = e.Codes[:len(e.Codes)-1]
	}
}

// emit appends a run length, splitting values beyond the 2-byte range
// with zero-length runs of the opposite phase, exactly as Encode does.
func (se *SeqEncoder) emit(n int) {
	for n > maxRun {
		se.e.Codes = append(se.e.Codes, maxRun, 0)
		n -= maxRun
	}
	se.e.Codes = append(se.e.Codes, uint16(n))
}

// EncodeRect encodes the pixels of region (clipped to the image's full
// frame) row-major into e, reusing e's Codes and NonBlank storage. It
// produces exactly the same encoding as Encode(img.PackRegion(region))
// while deriving blank flanks outside the image bounds arithmetically
// instead of scanning materialized blank pixels.
func EncodeRect(img *frame.Image, region frame.Rect, e *Encoding) {
	region = region.Intersect(img.Full())
	var se SeqEncoder
	se.Start(e)
	bounds := img.Bounds()
	w := region.Dx()
	for y := region.Y0; y < region.Y1; y++ {
		row := img.Row(y, region.X0, region.X1)
		if row == nil {
			se.Blank(w)
			continue
		}
		left := 0
		if bounds.X0 > region.X0 {
			left = bounds.X0 - region.X0
		}
		se.Blank(left)
		se.Pixels(row)
		se.Blank(w - left - len(row))
	}
	se.Finish()
}

// Wire is a validated zero-copy view over a Pack-serialized encoding:
// it keeps the raw code and pixel bytes of the message buffer instead of
// decoding them into slices. A Wire is only valid while the underlying
// buffer is; receivers walk it before reusing their scratch.
type Wire struct {
	total int
	codes []byte // NumCodes 2-byte little-endian run lengths
	px    []byte // packed foreground pixels
}

// ParseWire parses a Pack-serialized encoding from the front of buf,
// validating it exactly as Unpack does, and returns the view plus the
// remaining bytes. No pixel or code data is copied.
func ParseWire(buf []byte) (Wire, []byte, error) {
	var w Wire
	total, buf, err := readU32(buf)
	if err != nil {
		return w, nil, err
	}
	nc, buf, err := readU32(buf)
	if err != nil {
		return w, nil, err
	}
	if len(buf) < int(nc)*CodeBytes {
		return w, nil, fmt.Errorf("rle: truncated codes: want %d, have %d bytes", nc, len(buf))
	}
	w.total = int(total)
	w.codes = buf[:int(nc)*CodeBytes]
	buf = buf[int(nc)*CodeBytes:]
	nb, covered := 0, 0
	for i := 0; i < int(nc); i++ {
		c := w.code(i)
		covered += c
		if i%2 == 1 {
			nb += c
		}
	}
	if covered > w.total {
		return w, nil, fmt.Errorf("rle: runs cover %d pixels, sequence declares %d",
			covered, w.total)
	}
	if len(buf) < nb*frame.PixelBytes {
		return w, nil, fmt.Errorf("rle: truncated payload: want %d pixels, have %d bytes",
			nb, len(buf))
	}
	w.px = buf[:nb*frame.PixelBytes]
	return w, buf[nb*frame.PixelBytes:], nil
}

// Total returns the length of the encoded sequence in pixels.
func (w Wire) Total() int { return w.total }

// NumCodes returns the number of run-length codes in the message.
func (w Wire) NumCodes() int { return len(w.codes) / CodeBytes }

func (w Wire) code(i int) int {
	return int(w.codes[2*i]) | int(w.codes[2*i+1])<<8
}

// Walk calls fn once per foreground pixel with its position in the
// encoded sequence, in order, decoding pixels on the fly from the wire
// bytes. The view was validated at parse time, so Walk cannot fail.
func (w Wire) Walk(fn func(seq int, p frame.Pixel)) {
	pos, payload := 0, 0
	blankPhase := true
	for i, n := 0, w.NumCodes(); i < n; i++ {
		c := w.code(i)
		if !blankPhase {
			for k := 0; k < c; k++ {
				fn(pos+k, frame.GetPixel(w.px[(payload+k)*frame.PixelBytes:]))
			}
			payload += c
		}
		pos += c
		blankPhase = !blankPhase
	}
}
