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

// Codec is a reusable scratch buffer for building wire messages. The
// zero value is ready to use. A Codec is not safe for concurrent use;
// each compositing rank holds its own. Because compositing stage regions
// shrink monotonically, the first stage's buffer serves every later
// stage without reallocating, and because mp.Comm.Send copies payloads,
// reusing the buffer across stages is safe.
type Codec struct {
	buf []byte
}

// Grab returns an empty slice with capacity at least n, backed by the
// codec's scratch storage. Appending up to n bytes will not allocate.
func (c *Codec) Grab(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, 0, n)
	}
	return c.buf[:0]
}

// Retain hands buf — typically the grown result of appends rooted in a
// Grab — back to the codec so later Grabs reuse its storage.
func (c *Codec) Retain(buf []byte) {
	if cap(buf) > cap(c.buf) {
		c.buf = buf
	}
}

// EncodeRegion appends the wire encoding of region (clipped to the full
// frame) to buf and returns the extended slice: region.Area() pixels in
// row-major order, 16 bytes each, blank where the region lies outside
// the image's bounds. It is the fused, allocation-free equivalent of
// PackPixels(img.PackRegion(region)) — append to a scratch buffer from a
// Codec to avoid allocation entirely.
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
	dst = dst[:len(px)*PixelBytes]
	for i, p := range px {
		binary.LittleEndian.PutUint64(dst[i*PixelBytes:], math.Float64bits(p.I))
		binary.LittleEndian.PutUint64(dst[i*PixelBytes+8:], math.Float64bits(p.A))
	}
}

// CompositeWire composites wire-format pixels (exactly
// region.Area()*PixelBytes bytes, as produced by EncodeRegion) with the
// image's pixels over region, decoding each pixel on the fly. It is the
// fused equivalent of CompositeRegion(region, UnpackPixels(wire, n),
// srcInFront) and returns the same over-operation count.
func (im *Image) CompositeWire(region Rect, wire []byte, srcInFront bool) int {
	region = region.Intersect(im.full)
	if len(wire) != region.Area()*PixelBytes {
		panic(fmt.Sprintf("frame: CompositeWire: %d bytes for region %v (want %d)",
			len(wire), region, region.Area()*PixelBytes))
	}
	if region.Empty() {
		return 0
	}
	im.GrowExact(region)
	w := region.Dx()
	ops := 0
	for y := region.Y0; y < region.Y1; y++ {
		ops += CompositeRow(im.Row(y, region.X0, region.X1), wire[(y-region.Y0)*w*PixelBytes:], srcInFront)
	}
	return ops
}

// CompositeRow composites the first len(dst) wire-format pixels of wire
// in front of dst's pixels (srcInFront) or behind them, skipping blank
// ones, and returns how many it composited. It is the one loop from
// wire bytes to the over operator: CompositeWire runs it per scanline,
// and the run-length decoders per contiguous piece of a foreground run.
func CompositeRow(dst []Pixel, wire []byte, srcInFront bool) int {
	wire = wire[:len(dst)*PixelBytes]
	ops := 0
	for x := range dst {
		s := Pixel{
			I: math.Float64frombits(binary.LittleEndian.Uint64(wire[x*PixelBytes:])),
			A: math.Float64frombits(binary.LittleEndian.Uint64(wire[x*PixelBytes+8:])),
		}
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

// StoreWire writes wire-format pixels (exactly region.Area()*PixelBytes
// bytes) into the image over region, replacing existing contents — the
// fused equivalent of StoreRegion(region, UnpackPixels(wire, n)).
func (im *Image) StoreWire(region Rect, wire []byte) {
	region = region.Intersect(im.full)
	if len(wire) != region.Area()*PixelBytes {
		panic(fmt.Sprintf("frame: StoreWire: %d bytes for region %v (want %d)",
			len(wire), region, region.Area()*PixelBytes))
	}
	if region.Empty() {
		return
	}
	im.GrowExact(region)
	w := region.Dx()
	for y := region.Y0; y < region.Y1; y++ {
		dst := im.Row(y, region.X0, region.X1)
		src := wire[(y-region.Y0)*w*PixelBytes:]
		for x := range dst {
			dst[x] = Pixel{
				I: math.Float64frombits(binary.LittleEndian.Uint64(src[x*PixelBytes:])),
				A: math.Float64frombits(binary.LittleEndian.Uint64(src[x*PixelBytes+8:])),
			}
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
		for x := range srow {
			s := srow[x]
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
