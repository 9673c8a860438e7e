package core

import (
	"encoding/binary"
	"fmt"

	"sortlast/internal/frame"
)

// Ownership describes which pixels of the full frame a rank holds after
// compositing; the final gather (gather.go) picks the region codec they
// travel in from its kind. Rect ownership comes out of the block-split
// methods (BS, BSBR, BSBRC, direct, ds), a rect set out of dfb's
// tiles, interval ownership out of BSLC's interleaved split.
type Ownership interface {
	// Area returns the number of owned pixels.
	Area() int
	// AppendWire serializes the descriptor (self-describing, for the
	// final gather).
	AppendWire(buf []byte) []byte
	// Validate checks the descriptor against the full frame it claims
	// to describe; the gather rejects descriptors that do not fit
	// before touching pixel storage, and then regions that overlap any
	// owned region, the same rank's included.
	Validate(full frame.Rect) error
}

const (
	ownKindRect     = 0
	ownKindInterval = 1
	ownKindRectSet  = 2
)

// RectOwn is rectangular ownership.
type RectOwn struct {
	R frame.Rect
}

// Area implements Ownership.
func (o RectOwn) Area() int { return o.R.Area() }

// AppendWire implements Ownership.
func (o RectOwn) AppendWire(buf []byte) []byte {
	return appendRect(append(buf, ownKindRect), o.R)
}

// Validate implements Ownership.
func (o RectOwn) Validate(full frame.Rect) error {
	if !full.ContainsRect(o.R) {
		return fmt.Errorf("core: owned rect %v outside frame %v", o.R, full)
	}
	return nil
}

// RectSetOwn is ownership of an ordered list of disjoint non-empty
// rectangles — the tile set a tile-routed compositor owns. An empty list
// is valid: with more ranks than tiles, some ranks own nothing. Pixels
// travel in list order, row-major within each rectangle. Validate checks
// each rectangle alone; the gather root checks the set disjoint, with
// every other rank's owned regions.
type RectSetOwn struct {
	Rs []frame.Rect
}

// Area implements Ownership.
func (o RectSetOwn) Area() int {
	n := 0
	for _, r := range o.Rs {
		n += r.Area()
	}
	return n
}

// AppendWire implements Ownership.
func (o RectSetOwn) AppendWire(buf []byte) []byte {
	buf = append(buf, ownKindRectSet)
	buf = appendU32(buf, uint32(len(o.Rs)))
	for _, r := range o.Rs {
		buf = appendRect(buf, r)
	}
	return buf
}

// Validate implements Ownership.
func (o RectSetOwn) Validate(full frame.Rect) error {
	for _, r := range o.Rs {
		if r.Empty() {
			return fmt.Errorf("core: empty rect %v in rect-set ownership", r)
		}
		if !full.ContainsRect(r) {
			return fmt.Errorf("core: owned rect %v outside frame %v", r, full)
		}
	}
	return nil
}

// Interval is a half-open range of row-major linear pixel indices.
type Interval struct {
	Lo, Hi int
}

// Len returns the interval length.
func (iv Interval) Len() int { return iv.Hi - iv.Lo }

// IntervalOwn is ownership of a set of linear-index intervals over a
// frame of width W.
type IntervalOwn struct {
	W  int
	Iv []Interval
}

// Area implements Ownership.
func (o IntervalOwn) Area() int {
	n := 0
	for _, iv := range o.Iv {
		n += iv.Len()
	}
	return n
}

// AppendWire implements Ownership.
func (o IntervalOwn) AppendWire(buf []byte) []byte {
	buf = append(buf, ownKindInterval)
	buf = appendU32(buf, uint32(o.W))
	buf = appendU32(buf, uint32(len(o.Iv)))
	for _, iv := range o.Iv {
		buf = appendU32(buf, uint32(iv.Lo))
		buf = appendU32(buf, uint32(iv.Hi))
	}
	return buf
}

// Validate implements Ownership.
func (o IntervalOwn) Validate(full frame.Rect) error {
	if o.W != full.Dx() {
		return fmt.Errorf("core: interval ownership width %d, frame width %d", o.W, full.Dx())
	}
	limit := full.Area()
	for _, iv := range o.Iv {
		if iv.Lo < 0 || iv.Hi > limit {
			return fmt.Errorf("core: interval %+v outside frame of %d pixels", iv, limit)
		}
	}
	return nil
}

// ParseOwnership decodes an ownership descriptor from the front of buf
// and returns the remaining bytes.
func ParseOwnership(buf []byte) (Ownership, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("core: empty ownership descriptor")
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case ownKindRect:
		if len(buf) < frame.RectBytes {
			return nil, nil, fmt.Errorf("core: truncated rect ownership")
		}
		return RectOwn{R: frame.GetRect(buf)}, buf[frame.RectBytes:], nil
	case ownKindInterval:
		w, buf, err := readU32(buf)
		if err != nil {
			return nil, nil, err
		}
		n, buf, err := readU32(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(buf) < int(n)*8 {
			return nil, nil, fmt.Errorf("core: truncated interval ownership")
		}
		o := IntervalOwn{W: int(w), Iv: make([]Interval, n)}
		for i := range o.Iv {
			o.Iv[i].Lo = int(binary.LittleEndian.Uint32(buf[i*8:]))
			o.Iv[i].Hi = int(binary.LittleEndian.Uint32(buf[i*8+4:]))
			if o.Iv[i].Hi < o.Iv[i].Lo {
				return nil, nil, fmt.Errorf("core: inverted interval %+v", o.Iv[i])
			}
		}
		return o, buf[int(n)*8:], nil
	case ownKindRectSet:
		n, buf, err := readU32(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(buf) < int(n)*frame.RectBytes {
			return nil, nil, fmt.Errorf("core: truncated rect-set ownership")
		}
		o := RectSetOwn{Rs: make([]frame.Rect, n)}
		for i := range o.Rs {
			o.Rs[i] = frame.GetRect(buf[i*frame.RectBytes:])
		}
		return o, buf[int(n)*frame.RectBytes:], nil
	default:
		return nil, nil, fmt.Errorf("core: unknown ownership kind %d", kind)
	}
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("core: truncated u32")
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}
