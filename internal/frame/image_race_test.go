//go:build race

package frame

import (
	"strings"
	"testing"
)

// Under the race detector Fit checks its precondition, so a producer
// that fits over a pixel it wrote fails at once instead of leaving a
// stale margin for CopyFrom or Grow to expose.
func TestFitPanicsOnNonBlankMargin(t *testing.T) {
	im := NewImageBounds(32, 32, XYWH(4, 4, 20, 20))
	im.Set(10, 10, Pixel{I: 0.5, A: 0.5})
	im.Set(22, 5, Pixel{I: 0.5, A: 0.5})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "(22,5)") {
			t.Fatalf("Fit over a non-blank margin: recovered %q, want a panic naming (22,5)", msg)
		}
	}()
	im.Fit(XYWH(8, 8, 8, 8))
}

// Under the race detector the store kernels check their precondition:
// a store over a non-blank pixel would drop it, where the over operator
// it stands in for would have kept it in front.
func TestStorePanicsOnNonBlankPixel(t *testing.T) {
	wire := PackPixels([]Pixel{{I: 0.25, A: 0.5}, {I: 0.5, A: 0.5}})
	src := NewImageBounds(32, 32, XYWH(0, 0, 4, 4))
	for name, store := range map[string]func(){
		"StoreRow": func() { StoreRow([]Pixel{{}, {I: 0.1, A: 0.2}}, wire) },
		"StoreImage": func() {
			im := NewImage(32, 32)
			im.Set(2, 3, Pixel{I: 0.1, A: 0.2})
			im.StoreImage(src, XYWH(0, 0, 4, 4))
		},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "non-blank") {
					t.Errorf("%s over a non-blank pixel: recovered %q, want a panic", name, msg)
				}
			}()
			store()
		}()
	}
}
