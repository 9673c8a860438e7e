package frame

import (
	"math"
	"math/bits"
	"sync"
)

// Pixel storage has one owner at a time, as mp's receive buffers do.
// An image draws its storage from the size-classed pool below whenever
// it (re)allocates, and gives replaced storage back at once; its owner
// gives the rest back with Release once nothing will read the image
// again. An image that is never released is left to the garbage
// collector, which is always correct.
//
// The pools are sync.Pools, so an idle process pins nothing: two
// collections empty them.

const (
	// minPooledPix is the smallest pooled storage, 1 KiB of pixels: a
	// smaller image costs less to allocate than to pool.
	minPooledPix = 1 << minPooledLog
	// maxPooledPix is the largest, a 2048x2048 frame (64 MiB).
	maxPooledPix = 1 << maxPooledLog

	minPooledLog, maxPooledLog = 6, 22
)

// pixPools holds one pool per size class; see sizeClass for the indexing.
var pixPools [4 * (maxPooledLog - minPooledLog + 1)]sync.Pool

// poison is what race builds write over released storage (see
// poisonReleased): a NaN reads as neither blank nor equal to anything.
var poison = Pixel{I: math.NaN(), A: math.NaN()}

// sizeClass returns the pool index and the size of the smallest class
// that holds n pixels, minPooledPix <= n <= maxPooledPix. There are four
// classes per power of two (2^e x 1.25, 1.5, 1.75, 2).
func sizeClass(n int) (idx, size int) {
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	quarter := 1 << (e - 2)
	j := (n - 1<<e + quarter - 1) / quarter // 1..4
	return 4*(e-minPooledLog+1) + j - 1, 1<<e + j*quarter
}

// allocPixels returns n blank pixels. It reuses released storage from
// n's size class, when the class holds storage that fits n, or from the
// next class up, whose storage always does. A miss allocates exactly n,
// so an image its caller keeps is never rounded up to a class size —
// unless n's class held only storage too short for n: that class is
// being recycled, and a miss there allocates the class's full size,
// which every later request of the class fits. Otherwise requests just
// under a class's size miss whenever frame geometry moves, and what a
// frame allocates depends on which slice a request happens to draw.
func allocPixels(n int) []Pixel {
	if n < minPooledPix || n > maxPooledPix {
		return make([]Pixel, n)
	}
	idx, size := sizeClass(n)
	pix, short := takeFitting(&pixPools[idx], n)
	if pix == nil && idx+1 < len(pixPools) {
		pix, _ = takeFitting(&pixPools[idx+1], n)
	}
	switch {
	case pix != nil:
		clear(pix)
		return pix
	case short:
		return make([]Pixel, n, size)
	}
	return make([]Pixel, n)
}

// maxProbe bounds how many pooled slices takeFitting looks at in one
// class before it gives up.
const maxProbe = 8

// takeFitting draws pooled slices from pool until one holds n and
// returns it, cut to n; the ones too short go back. short reports
// whether it saw any of those.
func takeFitting(pool *sync.Pool, n int) (pix []Pixel, short bool) {
	var tooShort [maxProbe]*[]Pixel
	k := 0
	for k < maxProbe {
		p, _ := pool.Get().(*[]Pixel)
		if p == nil {
			break
		}
		if cap(*p) >= n {
			pix = (*p)[:n]
			break
		}
		tooShort[k] = p
		k++
	}
	for _, p := range tooShort[:k] {
		pool.Put(p)
	}
	return pix, k > 0
}

// releasePixels pools pix under the smallest class that holds its
// capacity.
func releasePixels(pix []Pixel) {
	c := cap(pix)
	if c < minPooledPix || c > maxPooledPix {
		return
	}
	idx, _ := sizeClass(c)
	pix = pix[:c]
	if poisonReleased {
		for i := range pix {
			pix[i] = poison
		}
	}
	pixPools[idx].Put(&pix)
}

// Release gives the image's pixel storage back to the pool and leaves
// the image blank, with empty Bounds, over the same full frame. The
// caller must own the image and must not read or write any slice Row
// returned before the call: the next image of its size class is
// written into the same memory. Releasing twice is harmless.
func (im *Image) Release() {
	releasePixels(im.pix)
	im.bounds, im.store, im.pix = ZR, ZR, nil
}
