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
