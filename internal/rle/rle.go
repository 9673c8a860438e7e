// Package rle implements the paper's run-length encoding: the
// background/foreground scheme of §3.3. A pixel sequence is described by
// alternating run lengths of blank and non-blank pixels, starting with a
// blank run, each length a 2-byte code; the non-blank pixel payload
// travels separately. This is what BSLC and BSBRC ship over the wire.
//
// The paper argues (§3.3) that the alternative, Ahrens and Painter's
// runs of identical pixel values, degenerates to one run per pixel on
// floating-point volume pixels; examples/surface counts that.
package rle

import (
	"fmt"

	"sortlast/internal/frame"
)

// CodeBytes is the wire size of one run-length code, the "2" in the
// paper's Eq. (6) and (8).
const CodeBytes = 2

// maxRun is the longest run expressible in a single 2-byte code.
const maxRun = 0xFFFF

// Encoding is a background/foreground run-length encoding of a pixel
// sequence. Codes hold alternating run lengths, blank run first (possibly
// zero); NonBlank holds the foreground pixels in sequence order. The
// encoded form never materializes blank pixels.
type Encoding struct {
	Codes    []uint16
	NonBlank []frame.Pixel
	Total    int // length of the encoded sequence in pixels
}

// Encode run-length encodes pixels by blank/non-blank state. The first
// code always describes a (possibly empty) blank run so the decoder needs
// no out-of-band phase bit. Runs longer than 65535 are split by inserting
// a zero-length run of the opposite state.
func Encode(pixels []frame.Pixel) Encoding {
	e := Encoding{Total: len(pixels)}
	emit := func(n int) {
		for n > maxRun {
			e.Codes = append(e.Codes, maxRun, 0)
			n -= maxRun
		}
		e.Codes = append(e.Codes, uint16(n))
	}
	i := 0
	blankPhase := true
	for i < len(pixels) {
		j := i
		if blankPhase {
			for j < len(pixels) && pixels[j].Blank() {
				j++
			}
		} else {
			for j < len(pixels) && !pixels[j].Blank() {
				j++
			}
			e.NonBlank = append(e.NonBlank, pixels[i:j]...)
		}
		emit(j - i)
		blankPhase = !blankPhase
		i = j
	}
	// A trailing blank run is implicit: decoders pad with blanks up to
	// Total. Trim it to save codes, but keep the mandatory leading code.
	for len(e.Codes) > 1 && e.Codes[len(e.Codes)-1] == 0 {
		e.Codes = e.Codes[:len(e.Codes)-1]
	}
	if len(e.Codes) > 1 && len(e.Codes)%2 == 1 && e.Codes[len(e.Codes)-1] != 0 {
		// Codes end on a blank run; it is implicit.
		e.Codes = e.Codes[:len(e.Codes)-1]
	}
	return e
}

// Decode reconstructs the dense pixel sequence, blanks included.
func (e *Encoding) Decode() []frame.Pixel {
	out := make([]frame.Pixel, e.Total)
	err := e.walk(func(seq int, p frame.Pixel) {
		out[seq] = p
	})
	if err != nil {
		panic(err) // walk over a locally built encoding cannot fail.
	}
	return out
}

// walk calls fn once per non-blank pixel with its position in the encoded
// sequence, in order, without materializing blanks. It validates the
// encoding and returns an error on inconsistency (truncated payload or
// runs overrunning Total), which a receiver must treat as a corrupt
// message.
func (e *Encoding) walk(fn func(seq int, p frame.Pixel)) error {
	pos, payload := 0, 0
	blankPhase := true
	for _, c := range e.Codes {
		n := int(c)
		if pos+n > e.Total {
			return fmt.Errorf("rle: runs overrun sequence length %d", e.Total)
		}
		if !blankPhase {
			if payload+n > len(e.NonBlank) {
				return fmt.Errorf("rle: %d non-blank pixels referenced, %d present",
					payload+n, len(e.NonBlank))
			}
			for k := 0; k < n; k++ {
				fn(pos+k, e.NonBlank[payload+k])
			}
			payload += n
		}
		pos += n
		blankPhase = !blankPhase
	}
	if payload != len(e.NonBlank) {
		return fmt.Errorf("rle: %d trailing non-blank pixels not covered by codes",
			len(e.NonBlank)-payload)
	}
	return nil
}

// Pack serializes the encoding: a 4-byte sequence length, a 4-byte code
// count, the codes, then the non-blank pixels. The framing fields are
// bookkeeping of this implementation; the paper's Eq. (6)/(8) terms
// 2·R_code + 16·A_opaque count only codes and pixels.
func (e *Encoding) Pack(buf []byte) []byte {
	buf = appendU32(buf, uint32(e.Total))
	buf = appendU32(buf, uint32(len(e.Codes)))
	for _, c := range e.Codes {
		buf = append(buf, byte(c), byte(c>>8))
	}
	var px [frame.PixelBytes]byte
	for _, p := range e.NonBlank {
		frame.PutPixel(px[:], p)
		buf = append(buf, px[:]...)
	}
	return buf
}

// Unpack parses an encoding produced by Pack from the front of buf and
// returns the remaining bytes.
func Unpack(buf []byte) (Encoding, []byte, error) {
	var e Encoding
	total, buf, err := readU32(buf)
	if err != nil {
		return e, nil, err
	}
	nc, buf, err := readU32(buf)
	if err != nil {
		return e, nil, err
	}
	if len(buf) < int(nc)*CodeBytes {
		return e, nil, fmt.Errorf("rle: truncated codes: want %d, have %d bytes", nc, len(buf))
	}
	e.Total = int(total)
	e.Codes = make([]uint16, nc)
	for i := range e.Codes {
		e.Codes[i] = uint16(buf[2*i]) | uint16(buf[2*i+1])<<8
	}
	buf = buf[int(nc)*CodeBytes:]
	// Validate that the runs fit the declared sequence length, and count
	// non-blank pixels from the codes (every odd-indexed code).
	nb, covered := 0, 0
	for i, c := range e.Codes {
		covered += int(c)
		if i%2 == 1 {
			nb += int(c)
		}
	}
	if covered > e.Total {
		return e, nil, fmt.Errorf("rle: runs cover %d pixels, sequence declares %d",
			covered, e.Total)
	}
	if len(buf) < nb*frame.PixelBytes {
		return e, nil, fmt.Errorf("rle: truncated payload: want %d pixels, have %d bytes",
			nb, len(buf))
	}
	e.NonBlank = frame.UnpackPixels(buf, nb)
	return e, buf[nb*frame.PixelBytes:], nil
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("rle: truncated header")
	}
	v := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	return v, buf[4:], nil
}
