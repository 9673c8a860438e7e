package frame

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file is the fused wire codec: the compositing data path between an
// Image and a message buffer with no intermediate []Pixel and no
// per-message allocation. EncodeRegion replaces the
// PackPixels(PackRegion(...)) pair on the sending side; CompositeWire and
// StoreWire replace UnpackPixels+CompositeRegion/StoreRegion on the
// receiving side; CompositeImage fuses local image-to-image compositing.
// All functions produce byte- and bit-identical results to the unfused
// pairs, which stay available (and tested against) as the reference path.

// EncodeRegion appends the wire encoding of region (clipped to the full
// frame) to buf and returns the extended slice: region.Area() pixels in
// row-major order, 16 bytes each, blank where the region lies outside
// the image's bounds. It is the fused, allocation-free equivalent of
// PackPixels(img.PackRegion(region)) — append to a reused scratch buffer
// to avoid allocation entirely.
func EncodeRegion(img *Image, region Rect, buf []byte) []byte {
	region = region.Intersect(img.full)
	need := region.Area() * PixelBytes
	off := len(buf)
	// Grow without zeroing: a region inside the bounds overwrites every
	// byte, and the extension may be dirty scratch capacity, so only a
	// region with blank parts is cleared first.
	buf = slices.Grow(buf, need)[:off+need]
	out := buf[off:]
	if !img.bounds.ContainsRect(region) {
		clear(out)
	}
	w := region.Dx()
	for y := region.Y0; y < region.Y1; y++ {
		row := img.Row(y, region.X0, region.X1)
		if row == nil {
			continue
		}
		// Row may be clipped on the left; recompute its x origin.
		x0 := max(region.X0, img.bounds.X0)
		PutPixels(out[((y-region.Y0)*w+(x0-region.X0))*PixelBytes:], row)
	}
	return buf
}

// PutPixels encodes px into the front of dst, which must hold
// len(px)*PixelBytes bytes: the copy loop EncodeRegion and the
// run-length writer share.
func PutPixels(dst []byte, px []Pixel) {
	dst = dst[: len(px)*PixelBytes : len(dst)]
	// As in CompositeRow, the three-index slice checks the length and
	// both lengths in the loop condition let the compiler drop every
	// bounds check in the body.
	for i := 0; i < len(px) && len(dst) >= PixelBytes; i++ {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(px[i].I))
		binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(px[i].A))
		dst = dst[PixelBytes:]
	}
}

// CompositeWire composites wire-format pixels (exactly
// region.Area()*PixelBytes bytes, as produced by EncodeRegion) with the
// image's pixels over region, decoding each pixel on the fly. It is the
// fused equivalent of CompositeRegion(region, UnpackPixels(wire, n),
// srcInFront) and returns the same over-operation count.
func (im *Image) CompositeWire(region Rect, wire []byte, srcInFront bool) int {
	return im.putWire("CompositeWire", region, wire, func(dst []Pixel, wire []byte) int {
		return CompositeRow(dst, wire, srcInFront)
	})
}

// StoreWire is CompositeWire behind the image's pixels where those are
// blank: it stores wire-format pixels (exactly region.Area()*PixelBytes
// bytes) over region with StoreRow and returns the non-blank count.
// Every pixel of the image over region must be blank (race builds check
// it); the stored pixels are StoreRegion(region, UnpackPixels(wire, n))'s
// with each -0 channel made +0.
func (im *Image) StoreWire(region Rect, wire []byte) int {
	return im.putWire("StoreWire", region, wire, StoreRow)
}

// putWire grows the image to region and runs row, a wire-to-pixel row
// kernel, over each of its scanlines.
func (im *Image) putWire(name string, region Rect, wire []byte, row func(dst []Pixel, wire []byte) int) int {
	region = region.Intersect(im.full)
	if len(wire) != region.Area()*PixelBytes {
		panic(fmt.Sprintf("frame: %s: %d bytes for region %v (want %d)",
			name, len(wire), region, region.Area()*PixelBytes))
	}
	if region.Empty() {
		return 0
	}
	im.GrowExact(region)
	stride := region.Dx() * PixelBytes
	n := 0
	for y := region.Y0; y < region.Y1; y++ {
		n += row(im.Row(y, region.X0, region.X1), wire[(y-region.Y0)*stride:])
	}
	return n
}

// CompositeRow composites the first len(dst) wire-format pixels of wire
// in front of dst's pixels (srcInFront) or behind them, skipping blank
// ones, and returns how many it composited. It is the one loop from
// wire bytes to the over operator: CompositeWire runs it per scanline,
// and the run-length decoders per contiguous piece of a foreground run.
func CompositeRow(dst []Pixel, wire []byte, srcInFront bool) int {
	// The three-index slice checks len(wire), not only its capacity: a
	// short wire panics here instead of reading stale bytes past its
	// end. Both lengths in the loop condition then let the compiler drop
	// every bounds check in the body.
	wire = wire[: len(dst)*PixelBytes : len(wire)]
	ops := 0
	for x := 0; x < len(dst) && len(wire) >= PixelBytes; x++ {
		s := GetPixel(wire)
		wire = wire[PixelBytes:]
		if s.Blank() {
			continue
		}
		ops++
		if srcInFront {
			OverInto(s, &dst[x])
		} else {
			dst[x] = Over(dst[x], s)
		}
	}
	return ops
}

// StoreRow is CompositeRow behind dst's pixels when those are blank:
// it stores the first len(dst) wire-format pixels of wire into dst,
// without reading dst, and returns how many are non-blank. Over(blank, p)
// is {0 + p.I, 0 + p.A} bit for bit — a -0 channel comes out +0, a NaN
// keeps its payload — so the store writes exactly that. Every pixel of
// dst must be blank (race builds check it).
func StoreRow(dst []Pixel, wire []byte) int {
	wire = wire[: len(dst)*PixelBytes : len(wire)] // checks the length, as in CompositeRow
	requireBlank(dst)
	n := 0
	for x := 0; x < len(dst) && len(wire) >= PixelBytes; x++ {
		i, a := binary.LittleEndian.Uint64(wire), binary.LittleEndian.Uint64(wire[8:])
		wire = wire[PixelBytes:]
		if (i|a)<<1 != 0 { // a channel other than ±0: not Blank
			n++
		}
		dst[x] = Pixel{I: 0 + math.Float64frombits(i), A: 0 + math.Float64frombits(a)}
	}
	return n
}

// requireBlank panics, in race builds, on a non-blank pixel of dst: the
// store kernels' precondition.
func requireBlank(dst []Pixel) {
	if !checkStore {
		return
	}
	for _, p := range dst {
		if !p.Blank() {
			panic(fmt.Sprintf("frame: store over non-blank pixel %v", p))
		}
	}
}

// CompositeImage composites the pixels of src over region directly from
// src's storage — the fused equivalent of
// CompositeRegion(region, src.PackRegion(region), srcInFront). Both
// images must share the same full frame.
func (im *Image) CompositeImage(src *Image, region Rect, srcInFront bool) int {
	region = region.Intersect(im.full)
	if region.Empty() {
		return 0
	}
	im.Grow(region)
	ops := 0
	// Pixels of the region outside src's bounds are blank and contribute
	// nothing, so only the intersection needs walking.
	walk := region.Intersect(src.bounds)
	for y := walk.Y0; y < walk.Y1; y++ {
		srow := src.Row(y, walk.X0, walk.X1)
		dst := im.Row(y, walk.X0, walk.X1)
		dst = dst[:len(srow)]
		for x, s := range srow {
			if s.Blank() {
				continue
			}
			ops++
			if srcInFront {
				OverInto(s, &dst[x])
			} else {
				dst[x] = Over(dst[x], s)
			}
		}
	}
	return ops
}

// StoreImage is CompositeImage behind im's pixels where those are blank
// over region: it stores src's pixels there, as StoreRow does, and
// returns the non-blank count CompositeImage would. Every pixel of im
// over region must be blank (race builds check it).
func (im *Image) StoreImage(src *Image, region Rect) int {
	region = region.Intersect(im.full)
	if region.Empty() {
		return 0
	}
	im.GrowExact(region)
	n := 0
	walk := region.Intersect(src.bounds)
	for y := walk.Y0; y < walk.Y1; y++ {
		srow := src.Row(y, walk.X0, walk.X1)
		dst := im.Row(y, walk.X0, walk.X1)[:len(srow)]
		requireBlank(dst)
		for x, s := range srow {
			if !s.Blank() {
				n++
			}
			dst[x] = Pixel{I: 0 + s.I, A: 0 + s.A}
		}
	}
	return n
}
