package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/stats"
)

// FuzzParseOwnership feeds arbitrary bytes to the ownership parser used
// by the final gather: no panic, and accepted descriptors must have a
// coherent area and a gather form that carries a blank frame.
func FuzzParseOwnership(f *testing.F) {
	f.Add(RectOwn{R: frame.XYWH(1, 2, 3, 4)}.AppendWire(nil))
	f.Add(IntervalOwn{W: 8, Iv: []Interval{{0, 5}, {9, 12}}}.AppendWire(nil))
	f.Add(RectSetOwn{Rs: []frame.Rect{frame.XYWH(0, 0, 4, 4), frame.XYWH(8, 8, 4, 4)}}.AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{ownKindInterval, 1, 0, 0, 0})
	f.Add([]byte{ownKindRectSet, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		own, _, err := ParseOwnership(data)
		if err != nil {
			return
		}
		area := own.Area()
		if area < 0 {
			t.Fatalf("negative area %d", area)
		}
		// A descriptor is only touched after it validates against the
		// receiving frame, exactly as GatherImage does.
		img := frame.NewImage(256, 256)
		if own.Validate(img.Full()) != nil {
			return
		}
		g, err := formOf(own, img.Full())
		if err != nil {
			t.Fatal(err)
		}
		var sent stats.Stage
		parts := sameParts(g, img)
		body := g.encode(nil, new(arena), parts, g.bound(parts), &sent)
		if sent.SentPixels != 0 {
			t.Fatalf("a blank frame shipped %d pixels", sent.SentPixels)
		}
		if err := g.store(img, body, new(stats.Stage)); err != nil {
			t.Fatalf("own encoding of a blank frame rejected: %v", err)
		}
	})
}

// decodeCase is one wire-format parser under fuzz: how to make a real
// payload for it, and how to feed it bytes — decode runs the parser with
// img as the receiver's image and returns which pixels it may touch.
type decodeCase struct {
	name   string
	seed   func(src *frame.Image) []byte
	decode func(t *testing.T, img *frame.Image, data []byte, front bool) (kept func(x, y int) bool)
}

// decodeCases lists every region codec's decoder, dfb's batch framing
// around the batched codec, and the gather message of each ownership
// kind.
func decodeCases() []decodeCase {
	var cases []decodeCase
	for _, tc := range codecCases {
		tc := tc
		g := codecRegion(goldenW, goldenH, tc.interleaved)
		cases = append(cases, decodeCase{
			name: tc.name,
			seed: func(src *frame.Image) []byte {
				br, _ := src.BoundingRect(src.Full())
				return tc.codec.encode(nil, new(arena), src, g, br, new(stats.Stage))
			},
			decode: func(_ *testing.T, img *frame.Image, data []byte, front bool) func(x, y int) bool {
				tc.codec.decode(img, g, data, order(front), new(stats.Stage))
				return func(x, y int) bool { return inRegion(g, goldenW, x, y) }
			},
		})
	}
	const p, me = 4, 1
	full := frame.XYWH(0, 0, goldenW, goldenH)
	dfb := &ownerMerge{name: "DFB", codec: rectRLE{batched: true}, tile: 16}
	til, err := newTiling(full, dfb.tile, p)
	if err != nil {
		panic(err)
	}
	cases = append(cases, decodeCase{
		name: "dfb-batch",
		seed: func(src *frame.Image) []byte {
			br, _ := src.BoundingRect(src.Full())
			return dfb.encodeFor(new(arena), src, til, me, br, new(stats.Stage))
		},
		// One accumulator per owned tile, each starting out as the
		// receiver's pixels: whatever the batch says, entry i may write
		// tile i of accumulator i and nothing else, so img itself — never
		// handed to the decoder — keeps no pixel.
		decode: func(t *testing.T, img *frame.Image, data []byte, _ bool) func(x, y int) bool {
			var acc []*frame.Image
			for t := me; t < til.n; t += p {
				acc = append(acc, img.Clone())
			}
			dfb.mergeFrom(acc, til, me, data, new(stats.Stage))
			for i, a := range acc {
				keep := til.rect(me + i*p)
				for y := 0; y < goldenH; y++ {
					for x := 0; x < goldenW; x++ {
						if !keep.Contains(x, y) && a.At(x, y) != img.At(x, y) {
							t.Fatalf("dfb-batch: pixel (%d,%d) of tile %v's accumulator changed: %v -> %v",
								x, y, keep, img.At(x, y), a.At(x, y))
						}
					}
				}
			}
			return func(x, y int) bool { return false }
		},
	})
	// The gather: the descriptor comes off the wire too, so what may be
	// written is whatever the parsed descriptor owns — nothing at all
	// unless it validates against the frame and its regions are
	// disjoint. The root stores into a blank image, as GatherImage does;
	// the receiver's pixels are never handed to it.
	for _, own := range gatherOwnerships(full) {
		own := own
		cases = append(cases, decodeCase{
			name: fmt.Sprintf("gather-%T", own),
			seed: func(src *frame.Image) []byte { return gatherPart(own, src) },
			decode: func(t *testing.T, _ *frame.Image, data []byte, _ bool) func(x, y int) bool {
				nothing := func(x, y int) bool { return false }
				f, body, err := parsePart(data, full)
				if err != nil || disjoint(&arena{cs: f.claims(1, nil)}) != nil {
					return nothing
				}
				var owned [goldenW * goldenH]bool
				got, _, _ := ParseOwnership(data)
				eachOwned(got, func(_, x, y int) { owned[y*goldenW+x] = true })
				final := func() *frame.Image {
					img := frame.NewImage(goldenW, goldenH)
					img.GrowExact(f.span(body))
					return img
				}
				img := final()
				if f.store(img, body, new(stats.Stage)) == nil {
					if f.store(final(), append(body[:len(body):len(body)], 0), new(stats.Stage)) == nil {
						t.Errorf("%T: a trailing byte after an accepted gather message was accepted", own)
					}
				}
				for y := 0; y < goldenH; y++ {
					for x := 0; x < goldenW; x++ {
						if !owned[y*goldenW+x] && !img.At(x, y).Blank() {
							t.Fatalf("%T: pixel (%d,%d) outside the owned regions written: %v", own, x, y, img.At(x, y))
						}
					}
				}
				return nothing
			},
		})
	}
	return cases
}

// gatherPart is the gather message of a rank owning own whose pixels
// are src's: the descriptor, then the owned pixels in own's gather form.
func gatherPart(own Ownership, src *frame.Image) []byte {
	f, err := formOf(own, src.Full())
	if err != nil {
		panic(err)
	}
	parts := sameParts(f, src)
	return f.encode(own.AppendWire(nil), new(arena), parts, f.bound(parts), new(stats.Stage))
}

// FuzzRegionDecode feeds arbitrary bytes to every region codec's decoder
// — the one parser each wire format has, whichever schedule carries it
// (swap halves, fold pre-stage, ds regions, dfb batch entries, gather
// parts) — to dfb's batch framing and to the gather's
// descriptor-then-regions message. Seeds are real payloads built from
// the golden scenes. A decoder must never panic and never write outside
// the region it was told to keep, accepted or not.
func FuzzRegionDecode(f *testing.F) {
	cases := decodeCases()
	for ci, dc := range cases {
		for scene := range goldenScenes {
			f.Add(uint8(ci), dc.seed(goldenImages(scene, 4)[1]))
		}
		f.Add(uint8(ci), []byte{})
	}
	// A gather message whose own regions overlap: tiles sharing a pixel
	// and intervals sharing one, refused before anything is stored.
	gather := slices.IndexFunc(cases, func(dc decodeCase) bool { return strings.HasPrefix(dc.name, "gather-") })
	src := goldenImages(0, 4)[1]
	for _, own := range []Ownership{
		RectSetOwn{Rs: []frame.Rect{frame.XYWH(0, 0, 16, 16), frame.XYWH(15, 15, 16, 16)}},
		IntervalOwn{W: goldenW, Iv: []Interval{{0, 2 * goldenW}, {goldenW + 3, goldenW + 4}}},
	} {
		f.Add(uint8(gather), gatherPart(own, src))
	}
	// The receiver's own pixels: whatever the payload says, the ones
	// outside the kept region must come out untouched.
	before := goldenImages(1, 4)[0]
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dc := cases[int(which&0x7F)%len(cases)]
		img := before.Clone()
		kept := dc.decode(t, img, data, which&0x80 != 0)
		for y := 0; y < goldenH; y++ {
			for x := 0; x < goldenW; x++ {
				if !kept(x, y) && img.At(x, y) != before.At(x, y) {
					t.Fatalf("%s: pixel (%d,%d) outside the kept region changed: %v -> %v",
						dc.name, x, y, before.At(x, y), img.At(x, y))
				}
			}
		}
	})
}
