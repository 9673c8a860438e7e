package rle

import (
	"testing"

	"sortlast/internal/frame"
)

// FuzzUnpack feeds arbitrary bytes to the bg/fg-encoding parser: it must
// never panic, and anything it accepts must be internally consistent
// (walkable without error).
func FuzzUnpack(f *testing.F) {
	e := Encode([]frame.Pixel{{}, {I: 0.5, A: 1}, {}, {I: 0.25, A: 0.5}})
	f.Add(e.Pack(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, _, err := Unpack(data)
		if err != nil {
			return
		}
		// Accepted encodings must walk cleanly and in bounds.
		walkErr := enc.walk(func(seq int, p frame.Pixel) {
			if seq < 0 || seq >= enc.Total {
				t.Fatalf("walk position %d outside [0,%d)", seq, enc.Total)
			}
		})
		if walkErr != nil {
			t.Fatalf("accepted encoding fails to walk: %v", walkErr)
		}
	})
}

// FuzzEncodeRoundTrip checks the encoder against arbitrary blank masks.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, mask []byte) {
		px := make([]frame.Pixel, len(mask))
		for i, m := range mask {
			if m%2 == 1 {
				px[i] = frame.Pixel{I: float64(m) / 255, A: 1}
			}
		}
		e := Encode(px)
		dec := e.Decode()
		if len(dec) != len(px) {
			t.Fatalf("decode length %d != %d", len(dec), len(px))
		}
		for i := range px {
			if dec[i] != px[i] {
				t.Fatalf("pixel %d mismatch", i)
			}
		}
	})
}
