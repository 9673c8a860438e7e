package server_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/harness"
	"sortlast/internal/render"
	"sortlast/internal/server"
)

// sequentialGray runs the request through the harness with validation
// on, so the returned image is asserted against the sequential
// compositing oracle (the run fails beyond rounding) before it becomes
// the reference.
func sequentialGray(t *testing.T, req server.Request, p int) []byte {
	t.Helper()
	_, img, err := harness.RunWithImage(harness.Config{
		Dataset: req.Dataset, Method: req.Method,
		Width: req.Width, Height: req.Height,
		P:    p,
		RotX: req.RotX, RotY: req.RotY,
		Validate:   true,
		RenderOpts: render.Options{Shaded: req.Shaded},
	})
	if err != nil {
		t.Fatalf("oracle run %+v: %v", req, err)
	}
	return img.AppendGray(nil)
}

// A renderd world with a non-power-of-two rank count serves every
// registered method — binary swap folded, the owner-routed methods over
// the folded decomposition's boxes — byte-identical to the sequential oracle.
func TestServeTileRoutedNonPow2(t *testing.T) {
	for _, p := range []int{3, 6} {
		_, cl := startServer(t, server.Config{P: p, DefaultDeadline: time.Minute})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		for _, m := range core.Names() {
			req := server.Request{Dataset: "cube", Method: m, Width: 48, Height: 48, RotY: 20}
			want := sequentialGray(t, req, p)
			f, err := cl.Render(ctx, req)
			if err != nil {
				t.Fatalf("P=%d %s: %v", p, m, err)
			}
			if !bytes.Equal(f.Gray, want) {
				t.Errorf("P=%d %s: served image differs from sequential oracle", p, m)
			}
		}
		cancel()
	}
}
