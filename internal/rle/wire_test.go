package rle

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sortlast/internal/frame"
)

// sparseImage builds a deterministic random image with the given logical
// bounds inside a w x h frame; roughly half the bounded pixels are
// non-blank.
func sparseImage(seed int64, w, h int, bounds frame.Rect) *frame.Image {
	im := frame.NewImageBounds(w, h, bounds)
	r := rand.New(rand.NewSource(seed))
	for y := bounds.Y0; y < bounds.Y1; y++ {
		for x := bounds.X0; x < bounds.X1; x++ {
			if r.Intn(2) == 0 {
				im.Set(x, y, px(r.Float64(), r.Float64()))
			}
		}
	}
	return im
}

func rectCases() []struct {
	name   string
	bounds frame.Rect
	region frame.Rect
} {
	return []struct {
		name   string
		bounds frame.Rect
		region frame.Rect
	}{
		{"contained", frame.XYWH(4, 4, 16, 16), frame.XYWH(6, 6, 8, 8)},
		{"exact", frame.XYWH(4, 4, 16, 16), frame.XYWH(4, 4, 16, 16)},
		{"clip-left-top", frame.XYWH(8, 8, 12, 12), frame.XYWH(2, 2, 10, 10)},
		{"clip-right-bottom", frame.XYWH(4, 4, 12, 12), frame.XYWH(10, 10, 14, 14)},
		{"straddles-bounds", frame.XYWH(10, 10, 6, 6), frame.XYWH(0, 0, 32, 32)},
		{"disjoint", frame.XYWH(2, 2, 4, 4), frame.XYWH(20, 20, 8, 8)},
		{"empty-region", frame.XYWH(4, 4, 8, 8), frame.Rect{}},
		{"empty-bounds", frame.Rect{}, frame.XYWH(4, 4, 8, 8)},
		{"outside-full", frame.XYWH(20, 20, 12, 12), frame.XYWH(24, 24, 16, 16)},
	}
}

func TestEncodeRectMatchesEncode(t *testing.T) {
	for _, tc := range rectCases() {
		t.Run(tc.name, func(t *testing.T) {
			im := sparseImage(1, 32, 32, tc.bounds)
			want := Encode(im.PackRegion(tc.region))
			var got Encoding
			EncodeRect(im, tc.region, &got)
			if got.Total != want.Total ||
				!reflect.DeepEqual(append([]uint16{}, got.Codes...), append([]uint16{}, want.Codes...)) ||
				!reflect.DeepEqual(append([]frame.Pixel{}, got.NonBlank...), append([]frame.Pixel{}, want.NonBlank...)) {
				t.Fatalf("EncodeRect = %+v, want %+v", got, want)
			}
		})
	}
}

func TestEncodeRectLongTrailingBlank(t *testing.T) {
	// A single foreground pixel followed by >65535 trailing blanks
	// exercises Encode's trimming residue (a maxRun,0 pair survives the
	// trim); the fused encoder must reproduce it code for code.
	im := frame.NewImage(300, 300)
	im.Set(0, 0, px(0.5, 0.5))
	region := frame.XYWH(0, 0, 300, 300)
	want := Encode(im.PackRegion(region))
	var got Encoding
	EncodeRect(im, region, &got)
	if got.Total != want.Total || !reflect.DeepEqual(got.Codes, want.Codes) {
		t.Fatalf("codes = %v (total %d), want %v (total %d)",
			got.Codes, got.Total, want.Codes, want.Total)
	}
}

// TestSeqEncoderQuick feeds the same random sequence to Encode and to a
// SeqEncoder chopped into arbitrary Blank/Pixels chunks; the encodings
// must be identical regardless of how the stream was sliced.
func TestSeqEncoderQuick(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var seq []frame.Pixel
		var se SeqEncoder
		var e Encoding
		se.Start(&e)
		for chunk, n := 0, r.Intn(8); chunk < n; chunk++ {
			if r.Intn(2) == 0 {
				k := r.Intn(40)
				seq = append(seq, make([]frame.Pixel, k)...)
				se.Blank(k)
			} else {
				pxs := randSparsePixels(r, r.Intn(40), 0.5)
				seq = append(seq, pxs...)
				se.Pixels(pxs)
			}
		}
		se.Finish()
		want := Encode(seq)
		return e.Total == want.Total &&
			reflect.DeepEqual(append([]uint16{}, e.Codes...), append([]uint16{}, want.Codes...)) &&
			reflect.DeepEqual(append([]frame.Pixel{}, e.NonBlank...), append([]frame.Pixel{}, want.NonBlank...))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqEncoderReuse(t *testing.T) {
	// Start must truncate the attached encoding so one Encoding can carry
	// successive messages without leaking codes between them.
	var se SeqEncoder
	var e Encoding
	se.Start(&e)
	se.Pixels(randSparsePixels(rand.New(rand.NewSource(1)), 50, 0.5))
	se.Finish()

	in := randSparsePixels(rand.New(rand.NewSource(2)), 30, 0.3)
	se.Start(&e)
	se.Pixels(in)
	se.Finish()
	want := Encode(in)
	if e.Total != want.Total || !reflect.DeepEqual(e.Codes, want.Codes) {
		t.Fatalf("reused encoding = %+v, want %+v", e, want)
	}
}

func TestParseWireMatchesUnpack(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		in := randSparsePixels(r, r.Intn(200), 0.3)
		e := Encode(in)
		buf := e.Pack(nil)
		buf = append(buf, 0xEE, 0xEE) // trailing bytes both parsers must return

		ue, rest1, err1 := Unpack(buf)
		w, rest2, err2 := ParseWire(buf)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: unpack err %v, parse err %v", trial, err1, err2)
		}
		if len(rest1) != 2 || len(rest2) != 2 {
			t.Fatalf("trial %d: rest %d/%d bytes, want 2", trial, len(rest1), len(rest2))
		}
		if w.Total() != ue.Total || w.NumCodes() != len(ue.Codes) || len(w.px)/frame.PixelBytes != len(ue.NonBlank) {
			t.Fatalf("trial %d: view (%d,%d,%d) vs encoding (%d,%d,%d)", trial,
				w.Total(), w.NumCodes(), len(w.px)/frame.PixelBytes,
				ue.Total, len(ue.Codes), len(ue.NonBlank))
		}
		dec := make([]frame.Pixel, w.Total())
		w.Walk(func(seq int, p frame.Pixel) { dec[seq] = p })
		if !reflect.DeepEqual(dec, ue.Decode()) {
			t.Fatalf("trial %d: Walk decodes differently from Decode", trial)
		}
	}
}

func TestParseWireRejectsCorrupt(t *testing.T) {
	e := Encode([]frame.Pixel{{}, px(1, 1), px(0.5, 0.5), {}, {}})
	good := e.Pack(nil)
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short-header", good[:6]},
		{"truncated-codes", good[:8+1]},
		{"truncated-payload", good[:len(good)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Unpack(tc.buf); err == nil {
				t.Fatal("Unpack accepted corrupt input")
			}
			if _, _, err := ParseWire(tc.buf); err == nil {
				t.Fatal("ParseWire accepted corrupt input")
			}
		})
	}
	// Runs covering more pixels than the declared total.
	bad := append([]byte{}, good...)
	bad[0], bad[1] = 1, 0 // total = 1, runs cover 5
	if _, _, err := ParseWire(bad); err == nil {
		t.Fatal("ParseWire accepted over-covering runs")
	}
	if _, _, err := Unpack(bad); err == nil {
		t.Fatal("Unpack accepted over-covering runs")
	}
}

// packRect is the reference the Writer is checked against: EncodeRect,
// then Pack.
func packRect(im *frame.Image, region frame.Rect) (buf []byte, codes, pixels int) {
	var e Encoding
	EncodeRect(im, region, &e)
	return e.Pack(nil), len(e.Codes), len(e.NonBlank)
}

// dirty returns a buffer holding prefix whose spare capacity, n bytes in
// all, holds garbage, as a reused message buffer does.
func dirty(prefix []byte, n int) []byte {
	buf := append(make([]byte, 0, n), prefix...)
	garbage := buf[len(buf):cap(buf)]
	for i := range garbage {
		garbage[i] = 0xAB
	}
	return buf
}

// The Writer's bytes must be EncodeRect + Pack's, on every region shape
// and after whatever its scratch held from earlier messages: regions
// partly or wholly outside the image's bounds, empty ones, all-blank
// ones, and runs past 65,535 pixels in both phases.
func TestWriterMatchesPack(t *testing.T) {
	type rectCase struct {
		name   string
		im     *frame.Image
		region frame.Rect
	}
	var cases []rectCase
	for _, tc := range rectCases() {
		cases = append(cases, rectCase{tc.name, sparseImage(1, 32, 32, tc.bounds), tc.region})
	}
	blank := frame.NewImageBounds(32, 32, frame.XYWH(4, 4, 16, 16))
	cases = append(cases, rectCase{"all-blank", blank, frame.XYWH(2, 2, 20, 20)})
	// 300x300 = 90,000 pixels: one foreground run past 65,535, a leading
	// blank run past it, and a trailing one.
	full := frame.NewImage(320, 300)
	lead := frame.NewImage(320, 300)
	trail := frame.NewImage(320, 300)
	for y := 0; y < 300; y++ {
		for x := 0; x < 300; x++ {
			full.Set(x, y, px(0.25, 0.5))
		}
	}
	lead.Set(299, 299, px(0.5, 0.5))
	trail.Set(0, 0, px(0.5, 0.5))
	for _, im := range []*frame.Image{full, lead, trail} {
		cases = append(cases, rectCase{"long-runs", im, frame.XYWH(0, 0, 300, 300)})
	}

	var w Writer
	prefix := []byte{1, 2, 3}
	for _, tc := range cases {
		want, wantCodes, wantPixels := packRect(tc.im, tc.region)
		got, codes, pixels := w.AppendRect(dirty(prefix, 1<<21), tc.im, tc.region)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("%s: Writer wrote %d bytes, EncodeRect+Pack %d, or they differ",
				tc.name, len(got)-3, len(want))
		}
		if codes != wantCodes || pixels != wantPixels {
			t.Fatalf("%s: Writer counted %d codes, %d pixels; want %d, %d",
				tc.name, codes, pixels, wantCodes, wantPixels)
		}
	}
}

// TestWriterQuick feeds one random sequence to the Writer, chopped into
// arbitrary Blank/Pixels chunks, and to Encode; the Writer must append
// exactly Pack's bytes.
func TestWriterQuick(t *testing.T) {
	var w Writer
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var seq []frame.Pixel
		w.Start()
		for chunk, n := 0, r.Intn(8); chunk < n; chunk++ {
			if r.Intn(2) == 0 {
				k := r.Intn(40)
				seq = append(seq, make([]frame.Pixel, k)...)
				w.Blank(k)
			} else {
				pxs := randSparsePixels(r, r.Intn(40), r.Float64())
				seq = append(seq, pxs...)
				w.Pixels(pxs)
			}
		}
		got, _, _ := w.Append(dirty(nil, 1<<13))
		want := Encode(seq)
		return bytes.Equal(got, want.Pack(nil))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
