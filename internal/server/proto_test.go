package server

import "testing"

// TestRequestCheck pins the geometry bound at its edges: exactly
// MaxReplyFrame pixels is the largest deliverable frame, sides whose
// product overflows are caught per side, and non-positive sides are
// left to the execution layer.
func TestRequestCheck(t *testing.T) {
	for _, tc := range []struct {
		w, h int
		ok   bool
	}{
		{512, 512, true},
		{1 << 14, 1 << 14, true},
		{MaxReplyFrame, 1, true},
		{1<<14 + 1, 1 << 14, false},
		{MaxReplyFrame + 1, 1, false},
		{1, MaxReplyFrame + 1, false},
		{100000, 100000, false},
		{1 << 32, 1 << 32, false},
		{1 << 62, 4, false},
		{0, 32, true},
		{-5, -5, true},
		{MaxReplyFrame + 1, -1, false},
	} {
		err := Request{Width: tc.w, Height: tc.h}.Check()
		if (err == nil) != tc.ok {
			t.Errorf("Check(%dx%d) = %v, want ok=%v", tc.w, tc.h, err, tc.ok)
		}
	}
}
