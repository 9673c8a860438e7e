package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sortlast/internal/frame"
	"sortlast/internal/stats"
)

// gatherRoundTrip sends own's pixels of img through the gather's wire
// form — descriptor, then the pixels in the codec of the ownership kind
// — and stores them into a blank frame, as GatherImage's root does.
func gatherRoundTrip(t *testing.T, own Ownership, img *frame.Image) (*frame.Image, []byte) {
	t.Helper()
	full := img.Full()
	f, err := formOf(own, full)
	if err != nil {
		t.Fatal(err)
	}
	parts := sameParts(f, img)
	part := f.encode(own.AppendWire(nil), new(arena), parts, f.bound(parts), new(stats.Stage))
	g, body, err := parsePart(part, full)
	if err != nil {
		t.Fatal(err)
	}
	dst := frame.NewImage(full.Dx(), full.Dy())
	dst.GrowExact(g.span(body))
	if err := g.store(dst, body, new(stats.Stage)); err != nil {
		t.Fatal(err)
	}
	return dst, part
}

func TestRectOwnPackUnpack(t *testing.T) {
	img := frame.NewImage(16, 16)
	img.Set(5, 5, frame.Pixel{I: 0.5, A: 1})
	img.Set(6, 7, frame.Pixel{I: 0.25, A: 0.5})
	img.Set(1, 1, frame.Pixel{I: 1, A: 1}) // not owned: must not travel
	own := RectOwn{R: frame.XYWH(4, 4, 8, 8)}
	dst, part := gatherRoundTrip(t, own, img)
	if dst.At(5, 5) != img.At(5, 5) || dst.At(6, 7) != img.At(6, 7) {
		t.Error("pixels lost in the gather round trip")
	}
	if !dst.At(1, 1).Blank() {
		t.Error("a pixel outside the owned rectangle travelled")
	}
	if dense := own.Area() * frame.PixelBytes; len(part) >= dense {
		t.Errorf("2 pixels of %d cost %d bytes, dense is %d", own.Area(), len(part), dense)
	}
	if !own.R.ContainsRect(dst.Bounds()) {
		t.Errorf("stored bounds %v escape the owned rectangle %v", dst.Bounds(), own.R)
	}
}

func TestIntervalOwnPackUnpack(t *testing.T) {
	img := frame.NewImage(8, 8)
	img.Set(3, 0, frame.Pixel{I: 1, A: 1})   // linear 3
	img.Set(1, 2, frame.Pixel{I: 0.5, A: 1}) // linear 17
	img.Set(7, 0, frame.Pixel{I: 1, A: 1})   // linear 7: not owned
	own := IntervalOwn{W: 8, Iv: []Interval{{0, 5}, {16, 20}}}
	if own.Area() != 9 {
		t.Fatalf("area = %d", own.Area())
	}
	dst, _ := gatherRoundTrip(t, own, img)
	if dst.At(3, 0) != img.At(3, 0) || dst.At(1, 2) != img.At(1, 2) {
		t.Error("interval pixels lost")
	}
	if !dst.At(7, 0).Blank() {
		t.Error("a pixel outside the owned intervals travelled")
	}
}

func TestOwnershipWireRoundTrip(t *testing.T) {
	owns := []Ownership{
		RectOwn{},
		RectOwn{R: frame.XYWH(3, 4, 100, 200)},
		IntervalOwn{W: 384, Iv: nil},
		IntervalOwn{W: 768, Iv: []Interval{{0, 10}, {20, 25}, {1000, 5000}}},
	}
	for _, o := range owns {
		buf := o.AppendWire(nil)
		buf = append(buf, 0x99)
		got, rest, err := ParseOwnership(buf)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if len(rest) != 1 {
			t.Fatalf("rest = %d", len(rest))
		}
		switch want := o.(type) {
		case RectOwn:
			if got.(RectOwn).R != want.R.Canon() {
				t.Errorf("rect round trip %v -> %v", want, got)
			}
		case IntervalOwn:
			g := got.(IntervalOwn)
			if g.W != want.W || !reflect.DeepEqual(g.Iv, want.Iv) && !(len(g.Iv) == 0 && len(want.Iv) == 0) {
				t.Errorf("interval round trip %+v -> %+v", want, g)
			}
		}
	}
}

func TestParseOwnershipRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{99},                 // unknown kind
		{ownKindRect, 1, 2},  // truncated rect
		{ownKindInterval, 1}, // truncated header
		(IntervalOwn{W: 4, Iv: []Interval{{5, 2}}}).AppendWire(nil), // inverted
	}
	for i, b := range bad {
		if _, _, err := ParseOwnership(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// splitInterleavedInto partitions the sequence exactly, with sections
// alternating at granularity g.
func TestSplitInterleavedProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vals []reflect.Value, r *rand.Rand) {
		// Random non-overlapping intervals.
		var iv []Interval
		pos := 0
		for n := r.Intn(6); n >= 0; n-- {
			pos += r.Intn(10)
			end := pos + 1 + r.Intn(50)
			iv = append(iv, Interval{pos, end})
			pos = end
		}
		vals[0] = reflect.ValueOf(iv)
		vals[1] = reflect.ValueOf(1 + r.Intn(20))
	}}
	err := quick.Check(func(iv []Interval, g int) bool {
		evens, odds := splitInterleavedInto(iv, g, nil, nil)
		if intervalsLen(evens)+intervalsLen(odds) != intervalsLen(iv) {
			return false
		}
		// Rebuild membership and compare with a direct simulation.
		member := map[int]int{} // index -> 0 (evens) or 1 (odds)
		for _, v := range evens {
			for i := v.Lo; i < v.Hi; i++ {
				member[i] = 0
			}
		}
		for _, v := range odds {
			for i := v.Lo; i < v.Hi; i++ {
				if _, dup := member[i]; dup {
					return false // overlap
				}
				member[i] = 1
			}
		}
		pos := 0
		for _, v := range iv {
			for i := v.Lo; i < v.Hi; i++ {
				want := (pos / g) % 2
				got, okFound := member[i]
				if !okFound || got != want {
					return false
				}
				pos++
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestSplitInterleavedMergesAdjacent(t *testing.T) {
	// A single long interval with g=2 must produce coalesced sections,
	// not per-pixel fragments beyond the alternation.
	evens, odds := splitInterleavedInto([]Interval{{0, 10}}, 2, nil, nil)
	if !reflect.DeepEqual(evens, []Interval{{0, 2}, {4, 6}, {8, 10}}) {
		t.Errorf("evens = %v", evens)
	}
	if !reflect.DeepEqual(odds, []Interval{{2, 4}, {6, 8}}) {
		t.Errorf("odds = %v", odds)
	}
	// Sections spanning interval gaps continue counting by sequence
	// position, not absolute index.
	// Positions 0-3 form section 0 (indices 0,1,2 and 100); positions
	// 4-5 fall in section 1 (indices 101,102).
	evens, odds = splitInterleavedInto([]Interval{{0, 3}, {100, 103}}, 4, nil, nil)
	if !reflect.DeepEqual(evens, []Interval{{0, 3}, {100, 101}}) {
		t.Errorf("gap case evens = %v", evens)
	}
	if !reflect.DeepEqual(odds, []Interval{{101, 103}}) {
		t.Errorf("gap case odds = %v", odds)
	}
}

func TestIntervalCursor(t *testing.T) {
	iv := []Interval{{10, 13}, {20, 22}, {30, 35}}
	cur := intervalCursor{iv: iv}
	want := []int{10, 11, 12, 20, 21, 30, 31, 32, 33, 34}
	for seq, w := range want {
		if got := cur.index(seq); got != w {
			t.Fatalf("seq %d -> %d, want %d", seq, got, w)
		}
	}
}

// Strip ownership must partition the frame exactly for any rank count,
// including more ranks than scanlines and a frame off the origin.
func TestStripRectCoversFrame(t *testing.T) {
	for _, full := range []frame.Rect{frame.XYWH(0, 0, 100, 97), frame.XYWH(3, 5, 41, 23)} {
		for _, p := range []int{1, 2, 3, 7, 23, 64, 97, 100, 150} {
			total := 0
			prevY1 := full.Y0
			for r := 0; r < p; r++ {
				s := stripRect(full, r, p)
				if s.Empty() {
					continue
				}
				if !full.ContainsRect(s) {
					t.Fatalf("p=%d strip %d = %v escapes frame", p, r, s)
				}
				if s.Y0 != prevY1 {
					t.Fatalf("p=%d: strip %d starts at %d, want %d", p, r, s.Y0, prevY1)
				}
				prevY1 = s.Y1
				total += s.Area()
			}
			if total != full.Area() || prevY1 != full.Y1 {
				t.Errorf("p=%d strips cover %d, want %d", p, total, full.Area())
			}
		}
	}
}
