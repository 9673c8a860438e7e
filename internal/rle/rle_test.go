package rle

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sortlast/internal/frame"
)

func px(i, a float64) frame.Pixel { return frame.Pixel{I: i, A: a} }

func randSparsePixels(r *rand.Rand, n int, density float64) []frame.Pixel {
	out := make([]frame.Pixel, n)
	for i := range out {
		if r.Float64() < density {
			a := 0.1 + 0.9*r.Float64()
			out[i] = px(r.Float64()*a, a)
		}
	}
	return out
}

func TestEncodeDecodeBasic(t *testing.T) {
	cases := [][]frame.Pixel{
		nil,
		{},
		make([]frame.Pixel, 100),     // all blank
		{px(0.1, 0.2), px(0.3, 0.4)}, // all non-blank
		{{}, px(1, 1), {}, {}, px(0.5, 0.5), px(0.25, 0.5), {}}, // mixed
		{px(1, 1)}, // single non-blank
		{{}},       // single blank
	}
	for i, in := range cases {
		e := Encode(in)
		got := e.Decode()
		if len(got) != len(in) {
			t.Fatalf("case %d: decoded length %d, want %d", i, len(got), len(in))
		}
		for j := range in {
			if got[j] != in[j] {
				t.Fatalf("case %d pixel %d: got %v want %v", i, j, got[j], in[j])
			}
		}
	}
}

func TestEncodeStartsWithBlankCode(t *testing.T) {
	e := Encode([]frame.Pixel{px(1, 1), px(1, 1)})
	if len(e.Codes) < 2 || e.Codes[0] != 0 || e.Codes[1] != 2 {
		t.Errorf("codes = %v, want leading zero blank run then 2", e.Codes)
	}
	e = Encode(make([]frame.Pixel, 5))
	if len(e.Codes) != 1 || e.Codes[0] != 5 {
		// A trailing blank run may be trimmed, but the mandatory leading
		// code remains; either [5] or [] with Total=5 decodes fine — the
		// implementation keeps [5].
		t.Errorf("all-blank codes = %v", e.Codes)
	}
}

func TestEncodeRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Values: func(vals []reflect.Value, r *rand.Rand) {
		n := r.Intn(2000)
		vals[0] = reflect.ValueOf(randSparsePixels(r, n, r.Float64()))
	}}
	err := quick.Check(func(in []frame.Pixel) bool {
		e := Encode(in)
		out := e.Decode()
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestEncodeLongRuns(t *testing.T) {
	// Runs longer than 65535 must split correctly in both phases.
	n := 3*maxRun + 17
	in := make([]frame.Pixel, 2*n)
	for i := n; i < 2*n; i++ {
		in[i] = px(0.5, 0.5)
	}
	e := Encode(in)
	out := e.Decode()
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("pixel %d: got %v want %v", i, out[i], in[i])
		}
	}
	if len(e.NonBlank) != n {
		t.Errorf("non-blank count = %d, want %d", len(e.NonBlank), n)
	}
}

func TestWalkOrderAndPositions(t *testing.T) {
	in := []frame.Pixel{{}, px(1, 1), {}, px(0.5, 0.5), px(0.25, 0.25)}
	e := Encode(in)
	var seqs []int
	err := e.walk(func(seq int, p frame.Pixel) {
		seqs = append(seqs, seq)
		if in[seq] != p {
			t.Errorf("walk pixel at %d = %v, want %v", seq, p, in[seq])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []int{1, 3, 4}) {
		t.Errorf("walk positions = %v", seqs)
	}
}

func TestWalkRejectsCorruptEncodings(t *testing.T) {
	// Runs overrunning Total.
	e := Encoding{Codes: []uint16{10}, Total: 5}
	if err := e.walk(func(int, frame.Pixel) {}); err == nil {
		t.Error("overrunning blank run must be rejected")
	}
	// Non-blank run without payload.
	e = Encoding{Codes: []uint16{0, 3}, Total: 3}
	if err := e.walk(func(int, frame.Pixel) {}); err == nil {
		t.Error("missing payload must be rejected")
	}
	// Excess payload.
	e = Encoding{Codes: []uint16{3}, NonBlank: []frame.Pixel{px(1, 1)}, Total: 3}
	if err := e.walk(func(int, frame.Pixel) {}); err == nil {
		t.Error("uncovered payload must be rejected")
	}
}

func TestPackUnpack(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		in := randSparsePixels(r, r.Intn(500), 0.3)
		e := Encode(in)
		buf := e.Pack(nil)
		buf = append(buf, 0xAA, 0xBB) // trailing bytes must be returned
		got, rest, err := Unpack(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 2 {
			t.Fatalf("rest = %d bytes, want 2", len(rest))
		}
		if got.Total != e.Total || !reflect.DeepEqual(got.Codes, e.Codes) {
			t.Fatalf("unpacked header mismatch")
		}
		out := got.Decode()
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("trial %d pixel %d mismatch", trial, i)
			}
		}
	}
}

func TestUnpackRejectsTruncation(t *testing.T) {
	e := Encode([]frame.Pixel{{}, px(1, 1), px(1, 0.5)})
	buf := e.Pack(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := Unpack(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestWireBytesMatchesPaperFormula(t *testing.T) {
	in := []frame.Pixel{{}, {}, px(1, 1), px(0.5, 0.5), {}, px(0.1, 0.1)}
	e := Encode(in)
	// Pack's 8-byte frame (sequence length, code count) is this
	// implementation's bookkeeping; the rest is the paper's 2·R_code +
	// 16·A_opaque.
	want := 8 + len(e.Codes)*2 + len(e.NonBlank)*16
	if got := len(e.Pack(nil)); got != want {
		t.Errorf("packed %d bytes, want %d", got, want)
	}
}

func TestWorstCaseAlternation(t *testing.T) {
	// Alternating blank/non-blank: code count equals pixel count — the
	// paper's stated worst case, equivalent to explicit coordinates.
	n := 200
	in := make([]frame.Pixel, n)
	for i := 1; i < n; i += 2 {
		in[i] = px(0.5, 0.5)
	}
	e := Encode(in)
	if len(e.Codes) < n-1 {
		t.Errorf("alternating input produced %d codes; worst case expects ~%d", len(e.Codes), n)
	}
	out := e.Decode()
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("pixel %d mismatch", i)
		}
	}
}
