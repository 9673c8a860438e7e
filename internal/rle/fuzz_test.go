package rle

import (
	"testing"

	"sortlast/internal/frame"
)

// FuzzUnpack feeds arbitrary bytes to the bg/fg-encoding parsers: they
// must never panic, and anything they accept must be internally
// consistent — Unpack's encoding walkable without error, and ParseWire's
// foreground runs ascending, inside the sequence and covering exactly
// the payload bytes.
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

		w, _, err := ParseWire(data)
		if err != nil {
			t.Fatalf("Unpack accepts what ParseWire rejects: %v", err)
		}
		end, off := 0, 0
		w.Runs(func(seq int, px []byte) {
			n := len(px) / frame.PixelBytes
			switch {
			case n == 0 || len(px)%frame.PixelBytes != 0:
				t.Fatalf("run at %d holds %d bytes", seq, len(px))
			case seq < end || seq+n > w.Total():
				t.Fatalf("run [%d,%d) after %d or past total %d", seq, seq+n, end, w.Total())
			case &px[0] != &w.px[off]:
				t.Fatalf("run at %d is not the payload's next %d bytes", seq, len(px))
			}
			end, off = seq+n, off+len(px)
		})
		if off != len(w.px) {
			t.Fatalf("runs cover %d of %d payload bytes", off, len(w.px))
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
