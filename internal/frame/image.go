package frame

import (
	"fmt"
	"math"
)

// Image is a sparse sub-image: a window (Bounds) of pixel storage inside
// a conceptual full frame (Full). Pixels outside Bounds read as blank.
//
// Every rank in the sort-last pipeline holds one Image. After rendering,
// Bounds is the bounding rectangle of the pixels the ray caster wrote,
// inside storage that covers the screen footprint of the rank's
// subvolume; during binary-swap compositing the owned region shrinks
// while received pixels are composited in place, and an owner-merge rank
// accumulates into one further Image per strip or tile it owns, sized to
// that rectangle. Keeping storage limited to the footprint keeps 64-rank
// runs at 768x768 affordable.
//
// Storage outside Bounds is always blank: Grow widens Bounds over it
// without clearing, CopyFrom clears only the old Bounds, and Fit narrows
// Bounds only over margins that are blank already.
type Image struct {
	full   Rect
	bounds Rect
	// store is the rectangle actually backed by pix; it always contains
	// bounds. Keeping storage larger than the logical bounds lets Grow
	// over-allocate geometrically (so incremental Set calls are amortized
	// O(1) instead of O(n) each) without changing what Bounds reports —
	// several wire-format producers size messages from Bounds, so the
	// logical rectangle must stay the exact union of grown regions.
	store Rect
	pix   []Pixel // row-major over store; len == store.Area()
}

// NewImage returns an image with a full frame of w x h pixels and no
// allocated storage (every pixel blank).
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: negative image size %dx%d", w, h))
	}
	return &Image{full: Rect{0, 0, w, h}}
}

// NewImageBounds returns an image with the given full frame and pixel
// storage allocated (blank) over bounds, which must lie inside the frame.
func NewImageBounds(w, h int, bounds Rect) *Image {
	im := NewImage(w, h)
	bounds = bounds.Canon()
	if !im.full.ContainsRect(bounds) {
		panic(fmt.Sprintf("frame: bounds %v outside full frame %v", bounds, im.full))
	}
	im.bounds = bounds
	im.store = bounds
	im.pix = allocPixels(bounds.Area())
	return im
}

// Full returns the full-frame rectangle.
func (im *Image) Full() Rect { return im.full }

// Bounds returns the rectangle over which pixels may be non-blank: the
// exact union of every region grown so far (explicitly or via Set),
// narrowed by Fit.
func (im *Image) Bounds() Rect { return im.bounds }

// Width and Height return the full-frame dimensions.
func (im *Image) Width() int  { return im.full.Dx() }
func (im *Image) Height() int { return im.full.Dy() }

// index returns the storage index of (x, y), which must be in bounds.
func (im *Image) index(x, y int) int {
	return (y-im.store.Y0)*im.store.Dx() + (x - im.store.X0)
}

// At returns the pixel at (x, y). Pixels outside the allocated bounds are
// blank; reading outside the full frame is a bug and panics.
func (im *Image) At(x, y int) Pixel {
	if !im.full.Contains(x, y) {
		panic(fmt.Sprintf("frame: At(%d,%d) outside full frame %v", x, y, im.full))
	}
	if !im.bounds.Contains(x, y) {
		return Pixel{}
	}
	return im.pix[im.index(x, y)]
}

// Set stores p at (x, y), growing the allocated bounds if necessary.
func (im *Image) Set(x, y int, p Pixel) {
	if !im.bounds.Contains(x, y) {
		im.Grow(Rect{x, y, x + 1, y + 1})
	}
	im.pix[im.index(x, y)] = p
}

// Grow extends the logical bounds to cover r (intersected with the full
// frame), preserving existing pixel contents. Growing to an already
// covered rectangle is a no-op. When new storage must be allocated it is
// over-allocated geometrically (padded by half the needed dimensions,
// clipped to the full frame), so a sequence of one-pixel Sets marching
// across the frame costs amortized O(1) per pixel instead of a full
// reallocation-and-copy each — Bounds still reports the exact union.
// The padding is for that pixel-at-a-time growth (Set, the tests'
// fixture setter); a caller that knows the rectangle it is about to
// write wants GrowExact.
func (im *Image) Grow(r Rect) {
	r = r.Intersect(im.full)
	if im.bounds.ContainsRect(r) {
		return
	}
	nb := im.bounds.Union(r)
	if im.store.ContainsRect(nb) {
		// Storage already covers the new bounds; pixels between the old
		// and new bounds are untouched since allocation, hence blank.
		im.bounds = nb
		return
	}
	// Pad the needed rectangle by half its extent (at least growPad) on
	// every side so each reallocation at least doubles the dimensions.
	pad := func(d int) int { return d/2 + growPad }
	im.reallocate(nb, Rect{
		X0: nb.X0 - pad(nb.Dx()), Y0: nb.Y0 - pad(nb.Dy()),
		X1: nb.X1 + pad(nb.Dx()), Y1: nb.Y1 + pad(nb.Dy()),
	}.Intersect(im.full))
}

// reallocate moves the image onto pooled blank storage over ns, which
// contains nb, with logical bounds nb: the pixels inside the old bounds
// are copied across, and the old storage goes back to the pool.
func (im *Image) reallocate(nb, ns Rect) {
	np := allocPixels(ns.Area())
	if !im.bounds.Empty() {
		w := im.bounds.Dx()
		sw := im.store.Dx()
		nw := ns.Dx()
		for y := im.bounds.Y0; y < im.bounds.Y1; y++ {
			srcOff := (y-im.store.Y0)*sw + (im.bounds.X0 - im.store.X0)
			dstOff := (y-ns.Y0)*nw + (im.bounds.X0 - ns.X0)
			copy(np[dstOff:dstOff+w], im.pix[srcOff:srcOff+w])
		}
	}
	pixels.Put(im.pix)
	im.bounds = nb
	im.store = ns
	im.pix = np
}

// growPad is the minimum per-side storage padding a reallocating Grow
// adds, so that repeated single-pixel growth still reallocates only
// geometrically often.
const growPad = 8

// GrowExact extends the logical bounds to cover r exactly like Grow but
// without storage over-allocation. It is the default for a caller that
// knows the rectangle before writing it: Raycast's footprint, the region
// decoders (CompositeWire, StoreWire and core's rectangle and interval
// codecs), the gather's root and the owner-merge accumulators. A binary
// swap rank's image regrows at most once per stage this way. Like Grow,
// it draws new storage from the pool and releases what it replaces.
func (im *Image) GrowExact(r Rect) {
	r = r.Intersect(im.full)
	if im.bounds.ContainsRect(r) {
		return
	}
	nb := im.bounds.Union(r)
	if im.store.ContainsRect(nb) {
		im.bounds = nb
		return
	}
	im.reallocate(nb, nb)
}

// Row returns the pixel storage for the portion of scanline y that lies
// within both the allocated bounds and x in [x0, x1). It returns nil when
// the scanline does not intersect the bounds. The returned slice aliases
// the image storage.
func (im *Image) Row(y, x0, x1 int) []Pixel {
	if y < im.bounds.Y0 || y >= im.bounds.Y1 {
		return nil
	}
	if x0 < im.bounds.X0 {
		x0 = im.bounds.X0
	}
	if x1 > im.bounds.X1 {
		x1 = im.bounds.X1
	}
	if x0 >= x1 {
		return nil
	}
	i := im.index(x0, y)
	return im.pix[i : i+(x1-x0)]
}

// Clone returns a deep copy of the image. Storage is compacted to the
// logical bounds, dropping any over-allocation padding.
func (im *Image) Clone() *Image {
	cp := &Image{full: im.full, bounds: im.bounds, store: im.bounds}
	cp.pix = allocPixels(im.bounds.Area())
	w := im.bounds.Dx()
	for y := im.bounds.Y0; y < im.bounds.Y1; y++ {
		copy(cp.pix[(y-im.bounds.Y0)*w:(y-im.bounds.Y0)*w+w], im.Row(y, im.bounds.X0, im.bounds.X1))
	}
	return cp
}

// CopyFrom makes im an exact logical copy of src, reusing im's pixel
// storage when it is large enough and otherwise trading it for pooled
// storage sized to src's bounds. The retained store keeps covering its
// old (possibly larger) rectangle, so a working image that is restored
// from a pristine source and re-grown every frame stops reallocating
// after the first one.
func (im *Image) CopyFrom(src *Image) {
	im.full = src.full
	if im.store.ContainsRect(src.bounds) && src.full.ContainsRect(im.store) {
		// The copy overwrites src's bounds; the rest of the store is
		// blank already except where the old bounds lie outside them.
		b, s := im.bounds, src.bounds
		lo := min(max(s.X0, b.X0), b.X1)
		hi := min(max(s.X1, lo), b.X1)
		for y := b.Y0; y < b.Y1; y++ {
			row := im.Row(y, b.X0, b.X1)
			if y >= s.Y0 && y < s.Y1 {
				clear(row[:lo-b.X0])
				row = row[hi-b.X0:]
			}
			clear(row)
		}
	} else {
		pixels.Put(im.pix)
		im.store = src.bounds
		im.pix = allocPixels(im.store.Area())
	}
	im.bounds = src.bounds
	for y := src.bounds.Y0; y < src.bounds.Y1; y++ {
		copy(im.Row(y, src.bounds.X0, src.bounds.X1), src.Row(y, src.bounds.X0, src.bounds.X1))
	}
}

// Fit narrows Bounds to r ∩ Bounds and keeps the storage; when nothing
// is left it releases the storage, as Release does. Every pixel outside
// r must be blank already (race builds check it): Fit is for a producer
// that knows where it wrote, such as the ray caster, and spares the
// consumers' scans the blank margins.
func (im *Image) Fit(r Rect) {
	if checkFit {
		for i, p := range im.pix {
			x, y := im.store.X0+i%im.store.Dx(), im.store.Y0+i/im.store.Dx()
			if !p.Blank() && !r.Contains(x, y) {
				panic(fmt.Sprintf("frame: Fit(%v) over non-blank pixel (%d,%d)", r, x, y))
			}
		}
	}
	if im.bounds = r.Intersect(im.bounds); im.bounds.Empty() {
		im.Release()
	}
}

// BoundingRect scans region (clipped to the frame) and returns the
// smallest rectangle covering every non-blank pixel, ZR when all pixels
// are blank. This is the O(A) scan the paper charges as T_bound in the
// first compositing stage of BSBR/BSBRC (Eq. 3, 7), and it returns that
// charge — the pixels of the region — so callers can account the scan
// cost exactly. The scan itself works inward from the region's edges and
// stops at the rectangle: blank margins are read in full, a region that
// is foreground edge to edge costs its perimeter.
func (im *Image) BoundingRect(region Rect) (Rect, int) {
	region = region.Intersect(im.full)
	scan := region.Area()
	br := region.Intersect(im.bounds)
	blankRow := func(y int) bool {
		for _, p := range im.Row(y, br.X0, br.X1) {
			if !p.Blank() {
				return false
			}
		}
		return true
	}
	for !br.Empty() && blankRow(br.Y0) {
		br.Y0++
	}
	for !br.Empty() && blankRow(br.Y1-1) {
		br.Y1--
	}
	if br.Empty() {
		return ZR, scan
	}
	// Both end rows hold foreground. A row can only widen the columns
	// [lo, hi) found so far with a pixel left of lo or right of hi.
	lo, hi := br.X1, br.X0
	for y := br.Y0; y < br.Y1; y++ {
		row := im.Row(y, br.X0, br.X1)
		for x := 0; x < lo-br.X0; x++ {
			if !row[x].Blank() {
				lo = br.X0 + x
				break
			}
		}
		for x := len(row) - 1; x >= hi-br.X0; x-- {
			if !row[x].Blank() {
				hi = br.X0 + x + 1
				break
			}
		}
	}
	br.X0, br.X1 = lo, hi
	return br, scan
}

// CountNonBlank returns the number of non-blank pixels inside region.
func (im *Image) CountNonBlank(region Rect) int {
	region = region.Intersect(im.bounds)
	n := 0
	for y := region.Y0; y < region.Y1; y++ {
		for _, p := range im.Row(y, region.X0, region.X1) {
			if !p.Blank() {
				n++
			}
		}
	}
	return n
}

// PackRegion copies the pixels of region (clipped to the full frame) into
// a dense row-major slice, with blanks where the region lies outside the
// allocated bounds. This is the "pack pixels into a sending buffer" step
// of BS and BSBR.
func (im *Image) PackRegion(region Rect) []Pixel {
	region = region.Intersect(im.full)
	out := make([]Pixel, region.Area())
	w := region.Dx()
	for y := region.Y0; y < region.Y1; y++ {
		row := im.Row(y, region.X0, region.X1)
		if row == nil {
			continue
		}
		// Row may be clipped on the left; recompute its x origin.
		x0 := region.X0
		if im.bounds.X0 > x0 {
			x0 = im.bounds.X0
		}
		off := (y-region.Y0)*w + (x0 - region.X0)
		copy(out[off:off+len(row)], row)
	}
	return out
}

// CompositeRegion composites the dense row-major pixels src (of exactly
// region.Area() elements) with the image's pixels over region. When
// srcInFront is true the incoming pixels are in front of the local ones,
// otherwise behind. It grows the allocated bounds to cover region and
// returns the number of over operations applied to non-blank incoming
// pixels (the paper's composited-pixel count driving T_o).
func (im *Image) CompositeRegion(region Rect, src []Pixel, srcInFront bool) int {
	region = region.Intersect(im.full)
	if len(src) != region.Area() {
		panic(fmt.Sprintf("frame: CompositeRegion: %d pixels for region %v (want %d)",
			len(src), region, region.Area()))
	}
	if region.Empty() {
		return 0
	}
	im.Grow(region)
	w := region.Dx()
	ops := 0
	for y := region.Y0; y < region.Y1; y++ {
		dst := im.Row(y, region.X0, region.X1)
		srow := src[(y-region.Y0)*w : (y-region.Y0)*w+w]
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

// StoreRegion writes the dense row-major pixels src (exactly
// region.Area() elements) into the image over region, replacing existing
// contents and growing the bounds as needed.
func (im *Image) StoreRegion(region Rect, src []Pixel) {
	region = region.Intersect(im.full)
	if len(src) != region.Area() {
		panic(fmt.Sprintf("frame: StoreRegion: %d pixels for region %v (want %d)",
			len(src), region, region.Area()))
	}
	if region.Empty() {
		return
	}
	im.Grow(region)
	w := region.Dx()
	for y := region.Y0; y < region.Y1; y++ {
		dst := im.Row(y, region.X0, region.X1)
		copy(dst, src[(y-region.Y0)*w:(y-region.Y0)*w+w])
	}
}

// NonBlankEqual reports whether im and other agree (within eps) on every
// pixel of region, treating unallocated pixels as blank.
func (im *Image) NonBlankEqual(other *Image, region Rect, eps float64) bool {
	region = region.Intersect(im.full)
	for y := region.Y0; y < region.Y1; y++ {
		for x := region.X0; x < region.X1; x++ {
			if !im.At(x, y).NearlyEqual(other.At(x, y), eps) {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest per-channel absolute difference between
// im and other over region, +Inf when a channel differs by NaN.
func (im *Image) MaxAbsDiff(other *Image, region Rect) float64 {
	region = region.Intersect(im.full)
	m := 0.0
	for y := region.Y0; y < region.Y1; y++ {
		for x := region.X0; x < region.X1; x++ {
			a, b := im.At(x, y), other.At(x, y)
			d := max(abs(a.I-b.I), abs(a.A-b.A)) // NaN if either is
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			m = max(m, d)
		}
	}
	return m
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
