package core

import (
	"math/rand"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/stats"
)

// BenchmarkRegionCodecs times the region codecs the compositors ship, in
// ns per pixel of the region: encode from an image into a warm arena's
// buffer, and decode that message in each write — in front of and
// behind an image whose storage already covers the region, and stored
// into one restored to blank before every call, as the gather root's
// image is blank (the store's figure includes that restore). The region is a 384×192 frame — for intervalRLE
// every other scanline of it, the interleaved split bslc makes — whose
// foreground is random discs covering 1 %, 30 % and 90 % of it, the run
// structure of rendered footprints, and, as the worst case for a
// run-length codec, 30 % of its pixels chosen independently. Neither
// direction may allocate once warm; the benchmark fails if one does.
//
//	go test -run xxx -bench RegionCodecs ./internal/core
func BenchmarkRegionCodecs(b *testing.B) {
	const w, h = 384, 192
	for _, tc := range []struct {
		name        string
		codec       regionCodec
		interleaved bool
	}{
		{"rectRaw", rectRaw{}, false},
		{"rectRLE", rectRLE{}, false},
		{"intervalRLE", intervalRLE{}, true},
	} {
		for _, im := range []struct {
			name string
			src  *frame.Image
		}{
			{"fg01", discImage(1, w, h, 0.01)},
			{"fg30", discImage(1, w, h, 0.3)},
			{"fg90", discImage(1, w, h, 0.9)},
			{"noise30", sparseImage(1, w, h, 0.3)},
		} {
			src := im.src
			g := region{rect: src.Full()}
			px := g.rect.Area()
			if tc.interleaved {
				g.iv, _ = splitInterleavedInto([]Interval{{0, px}}, w, nil, nil)
				px = intervalsLen(g.iv)
			}
			br, _ := src.BoundingRect(src.Full())
			ar := new(arena)
			var s stats.Stage
			encode := func() { ar.buf = tc.codec.encode(ar.buf[:0], ar, src, g, br, &s)[:0] }
			wire := tc.codec.encode(nil, ar, src, g, br, &s)
			dst := frame.NewImageBounds(w, h, src.Full())
			blank := frame.NewImageBounds(w, h, src.Full())
			decode := func(wr write) func() {
				return func() {
					if wr == store {
						dst.CopyFrom(blank)
					}
					if _, _, err := tc.codec.decode(dst, g, wire, wr, &s); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, dir := range []struct {
				name string
				run  func()
			}{{"encode", encode}, {"decode-front", decode(inFront)}, {"decode-behind", decode(behind)},
				{"decode-store", decode(store)}} {
				b.Run(tc.name+"/"+im.name+"/"+dir.name, func(b *testing.B) {
					dir.run()
					if n := testing.AllocsPerRun(5, dir.run); n != 0 {
						b.Fatalf("%g allocations per call on a warm arena", n)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dir.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(px), "ns/px")
				})
			}
		}
	}
}

// discImage covers about share of a w×h frame with random discs of
// random non-blank pixels.
func discImage(seed int64, w, h int, share float64) *frame.Image {
	r := rand.New(rand.NewSource(seed))
	im := frame.NewImageBounds(w, h, frame.XYWH(0, 0, w, h))
	for n := 0; float64(n) < share*float64(w*h); {
		cx, cy, rad := r.Intn(w), r.Intn(h), 4+r.Intn(20)
		for y := max(cy-rad, 0); y < min(cy+rad+1, h); y++ {
			for x := max(cx-rad, 0); x < min(cx+rad+1, w); x++ {
				if (x-cx)*(x-cx)+(y-cy)*(y-cy) <= rad*rad && im.At(x, y).Blank() {
					a := 0.2 + 0.8*r.Float64()
					im.Set(x, y, frame.Pixel{I: a * r.Float64(), A: a})
					n++
				}
			}
		}
	}
	return im
}

// BenchmarkDisjoint times the gather root's ownership check at P=8 on a
// 384×384 frame, for the ownership each schedule kind leaves: dfb's
// tiles dealt round-robin, ds's strips, and bslc's every-eighth
// scanline as intervals.
//
//	go test -run xxx -bench Disjoint ./internal/core
func BenchmarkDisjoint(b *testing.B) {
	const p, w = 8, 384
	full := frame.XYWH(0, 0, w, w)
	til, err := newTiling(full, DefaultTile, p)
	if err != nil {
		b.Fatal(err)
	}
	owns := map[string]func(r int) Ownership{
		"tiles": func(r int) Ownership {
			var own RectSetOwn
			for t := r; t < til.n; t += p {
				own.Rs = append(own.Rs, til.rect(t))
			}
			return own
		},
		"strips": func(r int) Ownership { return RectOwn{R: stripRect(full, r, p)} },
		"intervals": func(r int) Ownership {
			own := IntervalOwn{W: w}
			for y := r; y < w; y += p {
				own.Iv = append(own.Iv, Interval{y * w, (y + 1) * w})
			}
			return own
		},
	}
	for name, own := range owns {
		forms := make([]gatherForm, p)
		for r := range forms {
			if forms[r], err = formOf(own(r), full); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(name, func(b *testing.B) {
			ar := new(arena)
			for i := 0; i < b.N; i++ {
				ar.cs = ar.cs[:0]
				for r, f := range forms {
					ar.cs = f.claims(r, ar.cs)
				}
				if err := disjoint(ar); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
