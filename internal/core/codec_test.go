package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// codecCases lists every region codec once, for the table-driven codec
// tests and the decoder fuzz target.
var codecCases = []struct {
	name        string
	codec       regionCodec
	interleaved bool
}{
	{"raw", raw{}, false},
	{"rectRaw", rectRaw{}, false},
	{"rectRLE", rectRLE{}, false},
	{"rectRLE-batched", rectRLE{batched: true}, false},
	{"intervalRLE", intervalRLE{}, true},
}

// sparseImage fills a w x h frame with random non-blank pixels at the
// given density.
func sparseImage(seed int64, w, h int, density float64) *frame.Image {
	r := rand.New(rand.NewSource(seed))
	im := frame.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if r.Float64() < density {
				a := 0.2 + 0.8*r.Float64()
				im.Set(x, y, frame.Pixel{I: a * r.Float64(), A: a})
			}
		}
	}
	return im
}

// codecRegion is the region the codec tests exchange over a w x h frame:
// an off-center block, or every other 7-pixel section of the frame.
func codecRegion(w, h int, interleaved bool) region {
	if !interleaved {
		return region{rect: frame.XYWH(w/4, h/8, w/2, h/2)}
	}
	full := frame.XYWH(0, 0, w, h)
	evens, _ := splitInterleavedInto([]Interval{{0, full.Area()}}, 7, nil, nil)
	return region{rect: full, iv: evens}
}

// inRegion reports whether pixel (x, y) of a frame of width w belongs to g.
func inRegion(g region, w, x, y int) bool {
	if g.iv == nil {
		return g.rect.Contains(x, y)
	}
	for _, v := range g.iv {
		if i := y*w + x; i >= v.Lo && i < v.Hi {
			return true
		}
	}
	return false
}

// Every codec must carry a region's pixels exactly: decoding what encode
// produced into a blank image, in every write, reproduces the source
// inside the region, leaves everything outside it blank, consumes the
// whole payload, and appends after whatever the buffer already held.
func TestRegionCodecRoundTrip(t *testing.T) {
	const w, h = 40, 32
	for _, tc := range codecCases {
		for _, density := range []float64{0, 0.1, 1} {
			src := sparseImage(7, w, h, density)
			g := codecRegion(w, h, tc.interleaved)
			br, _ := src.BoundingRect(src.Full())
			var sent, got stats.Stage
			prefix := []byte{0xAA, 0xBB, 0xCC}
			payload := tc.codec.encode(prefix, new(arena), src, g, br, &sent)
			if !reflect.DeepEqual(payload[:3], prefix) {
				t.Fatalf("%s: encode overwrote the buffer it was given", tc.name)
			}
			payload = payload[3:]
			if len(payload) == 0 {
				// A batched region without foreground is not shipped.
				if c, ok := tc.codec.(rectRLE); !ok || !c.batched {
					t.Fatalf("%s density %g: empty payload", tc.name, density)
				}
				continue
			}
			for _, wr := range []write{behind, inFront, store} {
				dst := frame.NewImage(w, h)
				got = stats.Stage{}
				_, rest, err := tc.codec.decode(dst, g, payload, wr, &got)
				if err != nil {
					t.Fatalf("%s density %g write %d: %v", tc.name, density, wr, err)
				}
				if len(rest) != 0 {
					t.Fatalf("%s density %g write %d: %d bytes left over", tc.name, density, wr, len(rest))
				}
				nonBlank := 0
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						want := frame.Pixel{}
						if inRegion(g, w, x, y) {
							want = src.At(x, y)
						}
						if !want.Blank() {
							nonBlank++
						}
						if dst.At(x, y) != want {
							t.Fatalf("%s density %g write %d: pixel (%d,%d) = %v, want %v",
								tc.name, density, wr, x, y, dst.At(x, y), want)
						}
					}
				}
				if got.Composited != nonBlank {
					t.Errorf("%s density %g write %d: composited %d, region holds %d non-blank pixels",
						tc.name, density, wr, got.Composited, nonBlank)
				}
			}
		}
	}
}

// parseRLE must reject an encoding whose pixel count disagrees with its
// region, and a truncated body.
func TestParseRLERejectsMismatch(t *testing.T) {
	img := frame.NewImage(8, 8)
	img.Set(2, 2, frame.Pixel{I: 1, A: 1})
	var e rle.Encoding
	r := frame.XYWH(0, 0, 4, 4)
	rle.EncodeRect(img, r, &e)
	body := e.Pack(nil)
	if _, _, err := parseRLE(body, r.Area()); err != nil {
		t.Fatalf("valid region rejected: %v", err)
	}
	if _, _, err := parseRLE(body, 25); err == nil {
		t.Fatal("area mismatch accepted")
	}
	if _, _, err := parseRLE(body[:len(body)-2], r.Area()); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// packIntervals collects the pixels of the interval set in sequence
// order — the dense reference the fused interval encoder must match.
func packIntervals(img *frame.Image, w int, iv []Interval) []frame.Pixel {
	var out []frame.Pixel
	for _, v := range iv {
		for i := v.Lo; i < v.Hi; i++ {
			out = append(out, img.At(i%w, i/w))
		}
	}
	return out
}

// encodeIntervals must produce exactly the encoding of the dense
// sequence, including on an image that stores only part of the frame,
// and the run-length writer fed by it exactly SeqEncoder's packed bytes.
func TestEncodeIntervalsMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var wr rle.Writer
	for trial := 0; trial < 60; trial++ {
		w, h := 24, 20
		br := frame.XYWH(3+r.Intn(5), 2+r.Intn(5), 1+r.Intn(12), 1+r.Intn(10)).
			Intersect(frame.XYWH(0, 0, w, h))
		img := frame.NewImage(w, h)
		if trial%2 == 1 {
			img = frame.NewImageBounds(w, h, br)
		}
		// Non-blank pixels only inside the rectangle (the invariant the
		// caller maintains).
		for i := 0; i < 30; i++ {
			x := br.X0 + r.Intn(br.Dx())
			y := br.Y0 + r.Intn(br.Dy())
			img.Set(x, y, frame.Pixel{I: r.Float64(), A: 0.5 + r.Float64()/2})
		}
		var iv []Interval
		pos := 0
		for pos < w*h {
			skip := r.Intn(30)
			n := 1 + r.Intn(60)
			if pos+skip+n > w*h {
				break
			}
			iv = append(iv, Interval{Lo: pos + skip, Hi: pos + skip + n})
			pos += skip + n
		}
		want := rle.Encode(packIntervals(img, w, iv))
		var e rle.Encoding
		var se rle.SeqEncoder
		se.Start(&e)
		encodeIntervals(img, w, iv, &se)
		se.Finish()
		if e.Total != want.Total || !reflect.DeepEqual(e.Codes, want.Codes) ||
			!reflect.DeepEqual(e.NonBlank, want.NonBlank) {
			t.Fatalf("trial %d: encoding differs from dense\n got %v\nwant %v",
				trial, e.Codes, want.Codes)
		}
		wr.Start()
		encodeIntervals(img, w, iv, &wr)
		got, codes, pixels := wr.Append([]byte{0xEE})
		if !bytes.Equal(got[1:], e.Pack(nil)) || codes != len(e.Codes) || pixels != len(e.NonBlank) {
			t.Fatalf("trial %d: writer's %d bytes (%d codes, %d pixels) differ from SeqEncoder + Pack",
				trial, len(got)-1, codes, pixels)
		}
	}
}

// walkComposite is the per-pixel decode the run-based decoders replace,
// kept as their reference: every foreground pixel through Wire.Walk,
// placed by division. at maps a sequence position to its pixel.
func walkComposite(img *frame.Image, e rle.Wire, front bool, at func(seq int) (x, y int)) int {
	n := 0
	e.Walk(func(seq int, p frame.Pixel) {
		x, y := at(seq)
		q := &img.Row(y, x, x+1)[0]
		if front {
			frame.OverInto(p, q)
		} else {
			*q = frame.Over(*q, p)
		}
		n++
	})
	return n
}

// The run-based rectRLE and intervalRLE decoders must leave the same
// image bits and the same Composited as the Walk-based reference, in
// front and behind, on sparse, dense and run-splitting (>65,535 pixel)
// payloads; a store into a blank image must leave the bits compositing
// behind it does.
func TestRunDecodeMatchesWalk(t *testing.T) {
	const w, h = 320, 300
	solid := frame.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			solid.Set(x, y, frame.Pixel{I: 0.25, A: 0.5})
		}
	}
	srcs := []*frame.Image{sparseImage(3, w, h, 0.05), sparseImage(4, w, h, 0.6), solid}
	full := frame.XYWH(0, 0, w, h)
	evens, _ := splitInterleavedInto([]Interval{{0, full.Area()}}, 97, nil, nil)
	for si, src := range srcs {
		for _, wr := range []write{inFront, behind, store} {
			front := wr == inFront
			under := func() *frame.Image {
				if wr == store {
					return frame.NewImage(w, h)
				}
				return sparseImage(9, w, h, 0.5)
			}
			// rectRLE over a block reaching past 65,535 pixels.
			g := region{rect: frame.XYWH(10, 0, 300, 300)}
			var sent stats.Stage
			payload := rectRLE{}.encode(nil, new(arena), src, g, src.Full(), &sent)
			dst := under()
			want := dst.Clone()
			var got stats.Stage
			if _, _, err := (rectRLE{}).decode(dst, g, payload, wr, &got); err != nil {
				t.Fatal(err)
			}
			r, body, _ := readRect(payload, g.rect)
			e, _, err := parseRLE(body, r.Area())
			if err != nil {
				t.Fatal(err)
			}
			want.GrowExact(r)
			n := walkComposite(want, e, front, func(seq int) (int, int) {
				return r.X0 + seq%r.Dx(), r.Y0 + seq/r.Dx()
			})
			sameBits(t, fmt.Sprintf("rectRLE src %d write %d", si, wr), dst, want, got.Composited, n)

			// intervalRLE over an interleaved half of the frame.
			g = region{rect: full, iv: evens}
			payload = intervalRLE{}.encode(nil, new(arena), src, g, frame.ZR, &sent)
			dst = under()
			want = dst.Clone()
			got = stats.Stage{}
			if _, _, err := (intervalRLE{}).decode(dst, g, payload, wr, &got); err != nil {
				t.Fatal(err)
			}
			if e, _, err = parseRLE(payload, intervalsLen(evens)); err != nil {
				t.Fatal(err)
			}
			want.GrowExact(intervalRows(w, evens))
			cur := intervalCursor{iv: evens}
			n = walkComposite(want, e, front, func(seq int) (int, int) {
				idx := cur.index(seq)
				return idx % w, idx / w
			})
			sameBits(t, fmt.Sprintf("intervalRLE src %d write %d", si, wr), dst, want, got.Composited, n)
		}
	}
}

// sameBits fails unless the two images hold bit-identical pixels over
// the whole frame and the two composited counts agree.
func sameBits(t *testing.T, name string, got, want *frame.Image, gotN, wantN int) {
	t.Helper()
	if gotN != wantN {
		t.Fatalf("%s: composited %d, reference %d", name, gotN, wantN)
	}
	full := got.Full()
	for y := full.Y0; y < full.Y1; y++ {
		for x := full.X0; x < full.X1; x++ {
			a, b := got.At(x, y), want.At(x, y)
			if math.Float64bits(a.I) != math.Float64bits(b.I) || math.Float64bits(a.A) != math.Float64bits(b.A) {
				t.Fatalf("%s: pixel (%d,%d) = %v, reference %v", name, x, y, a, b)
			}
		}
	}
}

// On a sparse scene the paper's ordering of encodings must show up in
// M_max: BSBRC's rect + 2-byte codes sit below BSBR's dense bounding
// rectangle, which sits below raw BS's whole half.
func TestVariantEncodingCostOrdering(t *testing.T) {
	sc := makeScene(t, volume.EngineBlock(48, 48, 96), transfer.EngineLow(), 96, 96, 20, 30)
	const p = 8
	dec, err := partition.Decompose(sc.vol.Bounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	mmax := map[string]int{}
	for _, name := range []string{"bsbrc", "bsbr", "bs"} {
		_, rs := runComposite(t, sc, mustNew(t, name), dec, p)
		mmax[name] = stats.MaxMessageBytes(rs)
	}
	if mmax["bsbrc"] >= mmax["bsbr"] {
		t.Errorf("BSBRC M_max %d not below BSBR %d", mmax["bsbrc"], mmax["bsbr"])
	}
	if mmax["bsbr"] >= mmax["bs"] {
		t.Errorf("BSBR M_max %d not below raw BS %d", mmax["bsbr"], mmax["bs"])
	}
}
