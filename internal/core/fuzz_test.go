package core

import (
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/stats"
)

// FuzzParseOwnership feeds arbitrary bytes to the ownership parser used
// by the final gather: no panic, and accepted descriptors must have a
// coherent area and survive a pack/unpack cycle.
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
		px := own.Pack(img)
		if len(px) != area {
			t.Fatalf("packed %d pixels for area %d", len(px), area)
		}
	})
}

// decodeCase is one wire-format parser under fuzz: how to make a real
// payload for it, how to feed it bytes, and which pixels it may touch.
type decodeCase struct {
	name   string
	seed   func(src *frame.Image) []byte
	decode func(img *frame.Image, data []byte, front bool)
	kept   func(x, y int) bool
}

// decodeCases lists every region codec's decoder plus dfb's batch
// framing around the batched codec.
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
			decode: func(img *frame.Image, data []byte, front bool) {
				tc.codec.decode(img, g, data, front, new(stats.Stage))
			},
			kept: func(x, y int) bool { return inRegion(g, goldenW, x, y) },
		})
	}
	const p, me = 4, 1
	dfb := &ownerMerge{name: "DFB", codec: rectRLE{batched: true}, tile: 16}
	til, err := newTiling(frame.XYWH(0, 0, goldenW, goldenH), dfb.tile, p)
	if err != nil {
		panic(err)
	}
	return append(cases, decodeCase{
		name: "dfb-batch",
		seed: func(src *frame.Image) []byte {
			br, _ := src.BoundingRect(src.Full())
			return dfb.encodeFor(new(arena), src, til, me, br, new(stats.Stage))
		},
		decode: func(img *frame.Image, data []byte, _ bool) {
			dfb.mergeFrom(img, til, me, data, new(stats.Stage))
		},
		kept: func(x, y int) bool {
			for t := me; t < til.n; t += p {
				if til.rect(t).Contains(x, y) {
					return true
				}
			}
			return false
		},
	})
}

// FuzzRegionDecode feeds arbitrary bytes to every region codec's decoder
// — the one parser each wire format has, whichever schedule carries it
// (swap halves, fold pre-stage, ds regions, dfb batch entries, pipeline
// partials) — and to dfb's batch framing. Seeds are real payloads built
// from the golden scenes. A decoder must never panic and never write
// outside the region it was told to keep, accepted or not.
func FuzzRegionDecode(f *testing.F) {
	cases := decodeCases()
	for ci, dc := range cases {
		for scene := range goldenScenes {
			f.Add(uint8(ci), dc.seed(goldenImages(scene, 4)[1]))
		}
		f.Add(uint8(ci), []byte{})
	}
	// The receiver's own pixels: whatever the payload says, the ones
	// outside the kept region must come out untouched.
	before := goldenImages(1, 4)[0]
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dc := cases[int(which&0x7F)%len(cases)]
		img := before.Clone()
		dc.decode(img, data, which&0x80 != 0)
		for y := 0; y < goldenH; y++ {
			for x := 0; x < goldenW; x++ {
				if !dc.kept(x, y) && img.At(x, y) != before.At(x, y) {
					t.Fatalf("%s: pixel (%d,%d) outside the kept region changed: %v -> %v",
						dc.name, x, y, before.At(x, y), img.At(x, y))
				}
			}
		}
	})
}
