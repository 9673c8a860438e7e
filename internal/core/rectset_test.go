package core

import (
	"reflect"
	"testing"

	"sortlast/internal/frame"
)

func TestRectSetOwnPackUnpack(t *testing.T) {
	img := frame.NewImage(32, 32)
	img.Set(2, 2, frame.Pixel{I: 0.5, A: 1})
	img.Set(17, 3, frame.Pixel{I: 0.25, A: 0.5})
	img.Set(5, 20, frame.Pixel{I: 1, A: 0.75})
	own := RectSetOwn{Rs: []frame.Rect{
		frame.XYWH(0, 0, 16, 16),
		frame.XYWH(16, 0, 16, 16),
		frame.XYWH(0, 16, 16, 16),
	}}
	if own.Area() != 3*256 {
		t.Fatalf("area = %d", own.Area())
	}
	// A rectangle without foreground is not shipped at all.
	_, part := gatherRoundTrip(t, own, img)
	blank := RectSetOwn{Rs: append([]frame.Rect{frame.XYWH(16, 16, 16, 16)}, own.Rs...)}
	_, withBlank := gatherRoundTrip(t, blank, img)
	if extra := len(withBlank) - len(part); extra != frame.RectBytes {
		t.Errorf("a blank owned rectangle added %d bytes, want only its descriptor entry (%d)",
			extra, frame.RectBytes)
	}
	if dense := own.Area() * frame.PixelBytes; len(part) >= dense/10 {
		t.Errorf("3 pixels of %d cost %d bytes, dense is %d", own.Area(), len(part), dense)
	}
	img.Set(20, 20, frame.Pixel{I: 1, A: 1}) // in no owned rectangle
	dst, _ := gatherRoundTrip(t, own, img)
	for _, at := range [][2]int{{2, 2}, {17, 3}, {5, 20}} {
		if dst.At(at[0], at[1]) != img.At(at[0], at[1]) {
			t.Errorf("pixel %v lost in the gather round trip", at)
		}
	}
	if !dst.At(20, 20).Blank() {
		t.Error("a pixel outside the owned rectangles travelled")
	}
}

func TestRectSetOwnWireRoundTrip(t *testing.T) {
	for _, own := range []RectSetOwn{
		{},
		{Rs: []frame.Rect{frame.XYWH(3, 4, 10, 10)}},
		{Rs: []frame.Rect{frame.XYWH(0, 0, 64, 64), frame.XYWH(128, 0, 64, 64), frame.XYWH(0, 64, 64, 64)}},
	} {
		buf := own.AppendWire(nil)
		buf = append(buf, 0x7f)
		got, rest, err := ParseOwnership(buf)
		if err != nil {
			t.Fatalf("%+v: %v", own, err)
		}
		if len(rest) != 1 {
			t.Fatalf("rest = %d", len(rest))
		}
		g, ok := got.(RectSetOwn)
		if !ok {
			t.Fatalf("parsed %T", got)
		}
		if len(g.Rs) != len(own.Rs) {
			t.Fatalf("round trip %+v -> %+v", own, g)
		}
		if len(own.Rs) > 0 && !reflect.DeepEqual(g.Rs, own.Rs) {
			t.Errorf("round trip %+v -> %+v", own, g)
		}
	}
}

func TestRectSetOwnValidate(t *testing.T) {
	full := frame.XYWH(0, 0, 64, 64)
	if err := (RectSetOwn{}).Validate(full); err != nil {
		t.Errorf("empty set must validate: %v", err)
	}
	if err := (RectSetOwn{Rs: []frame.Rect{frame.XYWH(0, 0, 8, 8)}}).Validate(full); err != nil {
		t.Errorf("in-frame set must validate: %v", err)
	}
	if err := (RectSetOwn{Rs: []frame.Rect{{}}}).Validate(full); err == nil {
		t.Error("empty rect accepted")
	}
	if err := (RectSetOwn{Rs: []frame.Rect{frame.XYWH(60, 60, 8, 8)}}).Validate(full); err == nil {
		t.Error("out-of-frame rect accepted")
	}
}
