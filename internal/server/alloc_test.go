//go:build !race

package server_test

import (
	"net"
	"runtime"
	"testing"

	"sortlast/internal/server"
)

// A warm served frame allocates less on the server side than its own
// reply: renderd builds the reply in pooled bytes that go back once the
// listener has written them, and the per-dataset tables are built once.
// The caller here reads every reply into one reused buffer, so what the
// process allocates per frame is the server's, plus the request's and
// the reply header's JSON. (Skipped under -race, whose sync.Pools drop
// items at random.)
func TestServedFrameAllocatesLessThanItsReply(t *testing.T) {
	const size, frames = 256, 50
	srv, _ := startServer(t, server.Config{P: 2})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gray := make([]byte, size*size)
	serve := func(i int) {
		req := server.Request{Dataset: "head", Width: size, Height: size, RotY: float64(i % 8 * 10)}
		var resp server.Response
		if err := server.WriteJSON(conn, req); err != nil {
			t.Fatal(err)
		}
		if err := server.ReadJSON(conn, server.MaxRequestFrame, &resp); err != nil || !resp.OK {
			t.Fatalf("frame %d: %v %+v", i, err, resp)
		}
		if _, err := server.ReadFrame(conn, len(gray), gray); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		serve(i) // the dataset, the pools and the connection warm up
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		serve(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("%d bytes per served frame", per)
	if per >= size*size {
		t.Errorf("a warm %d² frame allocates %d bytes on the server side, want under its %d-byte reply", size, per, size*size)
	}
}
