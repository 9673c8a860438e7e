package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is a small virtual machine whose speed
// changes under it: for minutes at a time the same frame takes 1.3 to
// 2.6 times as long while the program has not changed (README.md has the
// measurements). No estimator inside a run can undo a slowdown that
// lasts longer than the run, so a run's timings are divided by how slow
// the host was during that run.
//
// The yardstick is hostTwin: a fixed piece of work owned by the
// benchmark — nothing in it calls the program, so no change to the
// program moves it — that uses the machine the way a frame does: it
// walks a volume with cache-missing reads, allocates and touches fresh
// memory, streams an over-operator across pixel-sized buffers, and hands
// buffers between two goroutines. It is read before every set-up probe
// and between the slices of the measured phase; a run's host factor is
// the median reading divided by twinRefMS.

// twinRefMS is what one hostTwin takes on the host that sized the frame
// counts while it is quiet. A timing metric is reported as
// measured × twinRefMS ÷ median twin reading: "at reference host speed".
const twinRefMS = 20.0

type twinState struct {
	vol  []uint8   // 128³ scalar field, fixed pattern
	src  []float64 // half a 384² frame of (intensity, alpha) pixels
	once sync.Once
}

var twin twinState

var twinSink float64

const (
	twinVol    = 128
	twinPix    = 192 * 384
	twinRays   = 192 // per side
	twinRounds = 8   // allocate, composite, exchange
)

func (t *twinState) init() {
	t.vol = make([]uint8, twinVol*twinVol*twinVol)
	x := uint32(2463534242)
	for i := range t.vol {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t.vol[i] = uint8(x >> 24)
	}
	t.src = make([]float64, 2*twinPix)
	for i := range t.src {
		t.src[i] = float64(i%97) / 128
	}
}

// twinHalf is one goroutine's share: march rays, composite into a fresh
// buffer, pass it on.
func (t *twinState) twinHalf(seedRow int, in <-chan []float64, out chan<- []float64) float64 {
	acc := 0.0
	// Ray march: twinRays² rays of 128 steps, nearest-voxel reads along
	// a diagonal so consecutive reads miss the cache line.
	for ry := 0; ry < twinRays; ry++ {
		for rx := 0; rx < twinRays; rx++ {
			a, c := 0.0, 0.0
			px, py, pz := rx+seedRow, ry, 0
			for s := 0; s < 128 && a < 0.999; s++ {
				v := float64(t.vol[((pz&127)*twinVol+(py&127))*twinVol+(px&127)]) / 255
				op := v * 0.05
				c += (1 - a) * op * v
				a += (1 - a) * op
				px, py, pz = px+1, py+1, pz+1
			}
			acc += c
		}
	}
	// Composite: fresh destination (page faults, GC work), one
	// over-operator pass from the fixed source, exchange, one more pass.
	for round := 0; round < twinRounds; round++ {
		dst := make([]float64, 2*twinPix)
		for i := 0; i < len(dst); i += 2 {
			si, sa := t.src[i], t.src[i+1]
			dst[i] = si + (1-sa)*dst[i]
			dst[i+1] = sa + (1-sa)*dst[i+1]
		}
		out <- dst
		got := <-in
		for i := 0; i < len(got); i += 64 {
			acc += got[i]
		}
	}
	return acc
}

// hostTwin runs the yardstick once on both processors and returns its
// wall time in milliseconds.
func hostTwin() float64 {
	twin.once.Do(twin.init)
	ab, ba := make(chan []float64, 1), make(chan []float64, 1) // one buffer in flight each way
	var wg sync.WaitGroup
	var sums [2]float64
	t0 := time.Now()
	wg.Add(2)
	go func() { defer wg.Done(); sums[0] = twin.twinHalf(0, ba, ab) }()
	go func() { defer wg.Done(); sums[1] = twin.twinHalf(1, ab, ba) }()
	wg.Wait()
	ms := float64(time.Since(t0)) / 1e6
	twinSink += sums[0] + sums[1]
	return ms
}
