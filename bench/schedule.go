package main

import (
	"fmt"
	"hash/fnv"
	"math"
)

// rng is splitmix64: tiny, fast enough to fill a 7 M-voxel volume in
// set-up, and — unlike math/rand's default source — pinned here, so a
// seed names the same inputs on every Go version.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, purpose) so adding a
// draw to one generator never shifts another's inputs.
func newRNG(seed int64, purpose string) *rng {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	r := &rng{s: uint64(seed) ^ h.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Seeds move the inputs without moving their cost: the acceptance runs
// use a different seed each time and must still agree within a few
// percent, so a seed picks phases, jitters and orders — never how much
// work a run contains.

// orbit is the seeded camera path of render_orbit: one full turn every
// steps frames. A chunk is steps frames, so every chunk of every seed
// sees the same set of view angles up to the seeded sub-step phase.
type orbit struct {
	rotX, phase float64
	steps       int
}

func newOrbit(seed int64, steps int) orbit {
	r := newRNG(seed, "orbit")
	return orbit{
		rotX:  20 + (r.float() - 0.5),
		phase: r.float() * 360 / float64(steps),
		steps: steps,
	}
}

// camera returns frame i's rotation in degrees.
func (o orbit) camera(i int) (rotX, rotY float64) {
	return o.rotX, o.phase + float64(i%o.steps)*360/float64(o.steps)
}

// composeCamera is the paper's tilted view (20, 30) with a seeded jitter
// of at most half a degree per axis.
func composeCamera(seed int64) (rotX, rotY float64) {
	r := newRNG(seed, "compose-camera")
	return 20 + (r.float() - 0.5), 30 + (r.float() - 0.5)
}

// Serving mix. Every block of serveBlock consecutive requests holds
// exactly serveHits bookmark repeats, servePreviews previews and the
// rest full-quality fresh cameras, in a seeded order, so each chunk (a
// whole number of blocks) carries the same mix and p50/p90 ranks stay
// inside the full-miss mode: sorted, hits fill 0–25 %, previews 25–40 %,
// full misses 40–100 %.
const (
	serveBlock    = 20
	serveHits     = 5
	servePreviews = 3
	bookmarks     = 8

	// Cameras sit exactly on the gateway's 0.25° cache grid, so a cache
	// hit returns the bytes of the very camera asked for and byte
	// verification needs no tolerance.
	camGrid   = 0.25
	yBuckets  = 1440 // 360 / camGrid
	xBuckets  = 41   // fresh RotX ∈ [15°, 25°]
	freshX0   = 15.0
	bookmarkX = 30.0 // outside the fresh range: a fresh camera never hits
	yStride   = 889  // coprime with yBuckets, ≈ golden-ratio spacing
	xStride   = 17   // coprime with xBuckets
)

type reqKind uint8

const (
	kindHit reqKind = iota
	kindPreview
	kindFull
)

func (k reqKind) String() string { return [...]string{"hit", "preview", "full"}[k] }

// serveReq is one scheduled request of serve_mix.
type serveReq struct {
	kind       reqKind
	rotX, rotY float64
}

// serveSchedule returns the first n requests of the seeded mix. Fresh
// cameras walk the (RotY, RotX) bucket grid with strides coprime to its
// sides: consecutive ones land ≈ 222° apart, so any run of them covers
// the circle evenly, and no bucket pair repeats within
// yBuckets*xBuckets (59 040) fresh requests.
func serveSchedule(seed int64, n int) []serveReq {
	r := newRNG(seed, "serve")
	y0, x0 := r.intn(yBuckets), r.intn(xBuckets)
	marks := bookmarkCameras(seed)
	out := make([]serveReq, 0, n+serveBlock)
	fresh := 0
	for len(out) < n {
		var block [serveBlock]reqKind
		for i := range block {
			switch {
			case i < serveHits:
				block[i] = kindHit
			case i < serveHits+servePreviews:
				block[i] = kindPreview
			default:
				block[i] = kindFull
			}
		}
		for i := serveBlock - 1; i > 0; i-- {
			j := r.intn(i + 1)
			block[i], block[j] = block[j], block[i]
		}
		for _, k := range block {
			if k == kindHit {
				out = append(out, marks[r.intn(bookmarks)])
				continue
			}
			y := (y0 + fresh*yStride) % yBuckets
			x := (x0 + fresh*xStride + fresh/yBuckets) % xBuckets
			fresh++
			out = append(out, serveReq{kind: k,
				rotX: freshX0 + float64(x)*camGrid, rotY: float64(y) * camGrid})
		}
	}
	return out[:n]
}

// bookmarkCameras are the repeat cameras: eight views 45° apart at a
// seeded phase.
func bookmarkCameras(seed int64) [bookmarks]serveReq {
	phase := newRNG(seed, "bookmarks").intn(yBuckets / bookmarks)
	var m [bookmarks]serveReq
	for i := range m {
		m[i] = serveReq{kind: kindHit, rotX: bookmarkX,
			rotY: float64(phase+i*yBuckets/bookmarks) * camGrid}
	}
	return m
}

// scheduleHash fingerprints a request sequence; equal seeds must give
// equal hashes.
func scheduleHash(reqs []serveReq) uint64 {
	h := fnv.New64a()
	for _, q := range reqs {
		fmt.Fprintf(h, "%d/%x/%x;", q.kind, math.Float64bits(q.rotX), math.Float64bits(q.rotY))
	}
	return h.Sum64()
}
