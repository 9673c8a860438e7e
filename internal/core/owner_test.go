package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/volume"
)

func testRoot() volume.Box { return volume.Box{Hi: [3]int{64, 64, 64}} }

// randImage fills a w x h frame at the given foreground density: a few
// random blobs at low density (a meaningful bounding rectangle), near
// full coverage at density 1.
func randImage(rng *rand.Rand, w, h int, density float64) *frame.Image {
	img := frame.NewImage(w, h)
	if density >= 1 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				img.Set(x, y, frame.Pixel{I: rng.Float64(), A: 0.2 + 0.8*rng.Float64()})
			}
		}
		return img
	}
	// Blobs totaling ~density of the frame.
	target := int(density * float64(w*h))
	for placed := 0; placed < target; {
		bw, bh := 1+rng.Intn(w/2), 1+rng.Intn(h/2)
		x0, y0 := rng.Intn(w), rng.Intn(h)
		for y := y0; y < y0+bh && y < h; y++ {
			for x := x0; x < x0+bw && x < w; x++ {
				if rng.Float64() < 0.7 {
					img.Set(x, y, frame.Pixel{I: rng.Float64(), A: rng.Float64()})
					placed++
				}
			}
		}
	}
	return img
}

func randImages(rng *rand.Rand, p, w, h int, density float64) []*frame.Image {
	imgs := make([]*frame.Image, p)
	for r := range imgs {
		imgs[r] = randImage(rng, w, h, density)
	}
	return imgs
}

// ownerMethods are the methods on the owner-merge schedule. They
// accumulate in global depth order, so they must reproduce the
// sequential reference byte for byte, not within an epsilon.
var ownerMethods = []string{"direct", "ds", "dfb"}

// The owner-merge methods must reproduce the sequential depth-order
// reference byte for byte, at power-of-two and non-power-of-two rank
// counts, on dense and sparse frames.
func TestOwnerMergeMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 16} {
		for name, density := range map[string]float64{"dense": 1, "sparse": 0.08} {
			rng := rand.New(rand.NewSource(int64(97*p) + int64(density*10)))
			imgs := randImages(rng, p, 48, 48, density)
			viewDir := [3]float64{0.3, -0.5, 0.81}
			for _, method := range ownerMethods {
				comp, dec := methodWorld(t, method, testRoot(), p, 16)
				ref := CompositeSequential(imgs, dec, viewDir)
				got, _ := runImages(t, inProcess, comp, dec, viewDir, imgs)
				requireIdentical(t, nameOf(comp)+" P="+strconv.Itoa(p)+" "+name, got, ref)
			}
		}
	}
}

// The tile edge must not affect the result: degenerate single-pixel
// tiles, tiles that do not divide the frame, and tiles larger than the
// frame all reduce to the same image.
func TestDFBTileSizes(t *testing.T) {
	const p = 5
	imgs := randImages(rand.New(rand.NewSource(42)), p, 50, 38, 0.2)
	viewDir := [3]float64{-0.2, 0.4, 0.89}
	for _, tile := range []int{1, 3, 16, 33, 64, 1000} {
		comp, dec := methodWorld(t, "dfb", testRoot(), p, tile)
		ref := CompositeSequential(imgs, dec, viewDir)
		got, _ := runImages(t, inProcess, comp, dec, viewDir, imgs)
		requireIdentical(t, "DFB tile="+strconv.Itoa(tile), got, ref)
	}
}

// Randomized identity sweep: random rank counts, frame geometries,
// densities, tile sizes and view directions.
func TestOwnerMergeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		p := 1 + rng.Intn(9)
		w, h := 8+rng.Intn(56), 8+rng.Intn(56)
		tile := 1 + rng.Intn(80)
		viewDir := [3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, 0.1 + rng.Float64()}
		imgs := randImages(rng, p, w, h, rng.Float64())
		for _, method := range ownerMethods {
			comp, dec := methodWorld(t, method, testRoot(), p, tile)
			ref := CompositeSequential(imgs, dec, viewDir)
			got, _ := runImages(t, inProcess, comp, dec, viewDir, imgs)
			requireIdentical(t, nameOf(comp), got, ref)
		}
	}
}

// An owner stores exactly what it owns: each part of its Result lies
// inside its owned region — so a rank holds at most Own.Area() pixels,
// whatever the regions' spread over the frame — and a region no rank's
// bounding rectangle reached has no pixel storage at all.
func TestOwnerMergeStoresOnlyWhatItOwns(t *testing.T) {
	viewDir := [3]float64{0.3, -0.5, 0.81}
	untouched := 0
	for _, method := range ownerMethods {
		tiles := []int{0}
		if method == "dfb" {
			tiles = []int{1, 16, 64, 1000}
		}
		for _, p := range []int{1, 3, 6, 8, 16} {
			for _, tile := range tiles {
				for name, density := range map[string]float64{"dense": 1, "sparse": 0.08} {
					label := fmt.Sprintf("%s P=%d tile=%d %s", method, p, tile, name)
					imgs := randImages(rand.New(rand.NewSource(int64(13*p+tile))), p, 48, 48, density)
					bounds := make([]frame.Rect, p)
					for r, img := range imgs {
						bounds[r], _ = img.BoundingRect(img.Full())
					}
					comp, dec := methodWorld(t, method, testRoot(), p, tile)
					results := make([]*Result, p)
					err := inProcess(p, func(c mp.Comm) (err error) {
						results[c.Rank()], err = comp.Composite(c, dec, viewDir, imgs[c.Rank()].Clone())
						return err
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for r, res := range results {
						f, err := formOf(res.Own, res.Full)
						if err != nil || len(res.Parts) != len(f.regions) {
							t.Fatalf("%s rank %d: %d parts for %d regions (%v)", label, r, len(res.Parts), len(f.regions), err)
						}
						stored := 0
						for i, reg := range f.regions {
							got := res.Parts[i].Bounds()
							stored += got.Area()
							if !reg.rect.ContainsRect(got) {
								t.Errorf("%s rank %d: region %v is stored over %v", label, r, reg.rect, got)
							}
							reached := false
							for _, br := range bounds {
								reached = reached || br.Overlaps(reg.rect)
							}
							if !reached {
								untouched++
								if !got.Empty() {
									t.Errorf("%s rank %d: nothing reached region %v, yet it stores %v", label, r, reg.rect, got)
								}
							}
						}
						if stored > res.Own.Area() {
							t.Errorf("%s rank %d: stores %d pixels, owns %d", label, r, stored, res.Own.Area())
						}
					}
				}
			}
		}
	}
	if untouched == 0 {
		t.Error("no case left an owned region untouched: the no-storage half tests nothing")
	}
}

// A compositor run over a decomposition of one world size must refuse
// a world of another, and one given no decomposition must say so.
func TestLayoutSizeMismatch(t *testing.T) {
	imgs := []*frame.Image{frame.NewImage(16, 16), frame.NewImage(16, 16)}
	for _, method := range []string{"ds", "dfb"} {
		comp, dec := methodWorld(t, method, testRoot(), 4, 0)
		err := mp.Run(2, testOpts(), func(c mp.Comm) error {
			_, err := comp.Composite(c, dec, [3]float64{0, 0, 1}, imgs[c.Rank()])
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "decomposition expects") {
			t.Fatalf("%s: world/decomposition mismatch not rejected: %v", method, err)
		}
		err = mp.Run(2, testOpts(), func(c mp.Comm) error {
			_, err := comp.Composite(c, nil, [3]float64{0, 0, 1}, imgs[c.Rank()])
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "no decomposition") {
			t.Fatalf("%s: nil decomposition not rejected: %v", method, err)
		}
	}
}

// The route round's traffic (encode + sends) and the merge pass's
// (receives + composites) must land in separate stage entries mirroring
// the two terms of the cost models, labeled route and merge, so spans
// and counters attribute time per stage. A stage
// that mixes directions — sends in the merge entry, composites in the
// route entry — breaks the split.
func TestOwnerMergeStageSplit(t *testing.T) {
	for _, method := range ownerMethods {
		const p = 3
		imgs := randImages(rand.New(rand.NewSource(11)), p, 48, 48, 1)
		comp, dec := methodWorld(t, method, testRoot(), p, 16)
		_, perRank := runImages(t, inProcess, comp, dec, [3]float64{0.3, -0.5, 0.81}, imgs)
		for r, st := range perRank {
			if len(st.Stages) != 2 {
				t.Fatalf("%s rank %d: %d stages, want route + merge", nameOf(comp), r, len(st.Stages))
			}
			route, merge := st.Stages[0], st.Stages[1]
			if route.Label != "route" || merge.Label != "merge" {
				t.Errorf("%s rank %d: stage labels %q, %q", nameOf(comp), r, route.Label, merge.Label)
			}
			if route.MsgsSent != p-1 || route.BytesSent == 0 {
				t.Errorf("%s rank %d route: sent %d msgs / %d bytes, want %d msgs",
					nameOf(comp), r, route.MsgsSent, route.BytesSent, p-1)
			}
			if route.MsgsRecv != 0 || route.Composited != 0 || route.RecvPixels != 0 {
				t.Errorf("%s rank %d: merge-side counters leaked into the route stage: %+v",
					nameOf(comp), r, route)
			}
			if merge.MsgsRecv != p-1 || merge.Composited == 0 {
				t.Errorf("%s rank %d merge: recv %d msgs / composited %d, want %d msgs",
					nameOf(comp), r, merge.MsgsRecv, merge.Composited, p-1)
			}
			if merge.MsgsSent != 0 || merge.Encoded != 0 || merge.SentPixels != 0 {
				t.Errorf("%s rank %d: route-side counters leaked into the merge stage: %+v",
					nameOf(comp), r, merge)
			}
		}
	}
}

// The stage labels the schedules record are the ones their spans carry:
// numbered for the swap schedule, route and merge for owner-merge.
func TestStageLabelsFollowSchedule(t *testing.T) {
	imgs := randImages(rand.New(rand.NewSource(5)), 4, 32, 32, 0.3)
	comp, dec := methodWorld(t, "bsbrc", testRoot(), 4, 0)
	_, rs := runImages(t, inProcess, comp, dec, [3]float64{0, 0, 1}, imgs)
	var labels []string
	for _, s := range rs[0].Stages {
		labels = append(labels, s.Label)
	}
	if got := strings.Join(labels, ","); got != "stage1,stage2" {
		t.Errorf("bsbrc stage labels = %s", got)
	}
}
