package sortlast

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderDefaults(t *testing.T) {
	res, err := Render("cube", Options{Processors: 4, Width: 96, Height: 96})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Method != "BSBRC" || res.Stats.P != 4 {
		t.Errorf("stats echo wrong: %+v", res.Stats)
	}
	if res.Stats.TotalMS <= 0 {
		t.Error("modeled total must be positive")
	}
	if res.Image.Width != 96 || len(res.Image.Gray) != 96*96 {
		t.Error("image shape wrong")
	}
	lit := 0
	for _, g := range res.Image.Gray {
		if g > 0 {
			lit++
		}
	}
	if lit == 0 {
		t.Error("image is black")
	}
	if res.Image.At(48, 48) == 0 {
		t.Error("cube center must be lit")
	}
}

func TestRenderAllDatasetsAndMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow")
	}
	for _, ds := range Datasets() {
		res, err := Render(ds, Options{Processors: 2, Width: 96, Height: 96})
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if res.Stats.Dataset != ds {
			t.Errorf("dataset echo: %+v", res.Stats)
		}
	}
	for _, m := range Methods() {
		if _, err := Render("cube", Options{Processors: 4, Method: m, Width: 96, Height: 96}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestRenderNonPowerOfTwo(t *testing.T) {
	res, err := Render("cube", Options{Processors: 5, Width: 64, Height: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stats.Method, "fold") {
		t.Errorf("method = %q, expected folded", res.Stats.Method)
	}
}

func TestRenderRaw(t *testing.T) {
	const n = 24
	data := make([]uint8, n*n*n)
	for z := 8; z < 16; z++ {
		for y := 8; y < 16; y++ {
			for x := 8; x < 16; x++ {
				data[(z*n+y)*n+x] = 200
			}
		}
	}
	res, err := RenderRaw(data, n, n, n, "linear", Options{Processors: 4, Width: 64, Height: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.At(32, 32) == 0 {
		t.Error("raw cube center must be lit")
	}
	if _, err := RenderRaw(data[:5], n, n, n, "linear", Options{}); err == nil {
		t.Error("size mismatch must error")
	}
	if _, err := RenderRaw(data, n, n, n, "bogus-tf", Options{}); err == nil {
		t.Error("unknown transfer preset must error")
	}
}

func TestImagePGM(t *testing.T) {
	res, err := Render("cube", Options{Processors: 2, Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Image.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P5\n32 32\n255\n")) {
		t.Errorf("PGM header wrong: %q", buf.Bytes()[:20])
	}
}

func TestListings(t *testing.T) {
	if len(Datasets()) != 4 || len(Methods()) != 8 {
		t.Error("listings changed unexpectedly")
	}
	have := map[string]bool{}
	for _, m := range Methods() {
		have[m] = true
	}
	for _, m := range []string{"bsbrc", "ds", "dfb"} {
		if !have[m] {
			t.Errorf("method %q missing from listing %v", m, Methods())
		}
	}
}
