package frame

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

func TestWritePGMFormat(t *testing.T) {
	im := NewImage(3, 2)
	im.Set(0, 0, Pixel{I: 1, A: 1})
	im.Set(2, 1, Pixel{I: 0.5, A: 1})
	var buf bytes.Buffer
	if err := im.writePGM(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("P5\n3 2\n255\n"), 255, 0, 0, 0, 0, 128)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("PGM bytes = %v, want %v", buf.Bytes(), want)
	}
}

func TestWritePGMFile(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(1, 1, Pixel{I: 1, A: 1})
	path := t.TempDir() + "/out.pgm"
	if err := im.WritePGMFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P5\n4 4\n255\n")) {
		t.Errorf("header: %q", data[:12])
	}
	if len(data) != 11+16 {
		t.Errorf("file size %d", len(data))
	}
}

func TestWritePGMFileFailsOnBadPath(t *testing.T) {
	im := NewImage(2, 2)
	if err := im.WritePGMFile("/nonexistent-dir-xyz/a.pgm"); err == nil {
		t.Error("bad path must error")
	}
}

func TestStoreRegion(t *testing.T) {
	im := NewImage(8, 8)
	im.Set(2, 2, Pixel{I: 0.9, A: 0.9}) // will be overwritten
	region := XYWH(2, 2, 2, 2)
	src := []Pixel{{I: 0.1, A: 0.1}, {}, {}, {I: 0.4, A: 0.4}}
	im.StoreRegion(region, src)
	if im.At(2, 2) != (Pixel{I: 0.1, A: 0.1}) {
		t.Error("store must replace existing contents")
	}
	if !im.At(3, 2).Blank() {
		t.Error("blank source pixels must be stored as blank")
	}
	if im.At(3, 3) != (Pixel{I: 0.4, A: 0.4}) {
		t.Error("last pixel wrong")
	}
}

func TestStoreRegionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewImage(4, 4).StoreRegion(XYWH(0, 0, 2, 2), make([]Pixel, 3))
}

func ExampleOver() {
	front := Pixel{I: 0.2, A: 0.5}
	back := Pixel{I: 0.6, A: 1.0}
	out := Over(front, back)
	fmt.Printf("I=%.2f A=%.2f\n", out.I, out.A)
	// Output: I=0.50 A=1.00
}
