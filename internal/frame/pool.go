package frame

import (
	"math"

	"sortlast/internal/pool"
)

// Pixel storage has one owner at a time, as mp's receive buffers do.
// An image draws its storage from the pool below whenever it
// (re)allocates, and gives replaced storage back at once; its owner
// gives the rest back with Release once nothing will read the image
// again. An image that is never released is left to the garbage
// collector, which is always correct.
//
// The pool holds 1 KiB of pixels up to a 2048x2048 frame (64 MiB); race
// builds poison released storage with NaN pixels, which read as neither
// blank nor equal to anything.
var pixels = pool.New(6, 22, Pixel{I: math.NaN(), A: math.NaN()})

// allocPixels returns n blank pixels, from the pool when it holds
// storage that fits.
func allocPixels(n int) []Pixel {
	pix, reused := pixels.Get(n)
	if reused {
		clear(pix)
	}
	return pix
}

// Release gives the image's pixel storage back to the pool and leaves
// the image blank, with empty Bounds, over the same full frame. The
// caller must own the image and must not read or write any slice Row
// returned before the call: the next image of its size class is
// written into the same memory. Releasing twice is harmless.
func (im *Image) Release() {
	pixels.Put(im.pix)
	im.bounds, im.store, im.pix = ZR, ZR, nil
}
