package main

import (
	"context"
	"fmt"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/fleet"
	"sortlast/internal/harness"
	"sortlast/internal/server"
)

const (
	serveDataset  = "head"
	serveSize     = 256
	serveP        = 2 // ranks per replica
	serveReplicas = 2
	// serveSamples fresh full-quality replies are checked byte for byte
	// after the phase, besides all bookmark replies before it.
	serveSamples = 16
)

// serveMix is the whole serving path: two callers share one
// client.Client, which talks to a fleet.Gateway in front of two
// in-process renderd replicas of two ranks each. Gateway and replicas
// run their zero-value configuration apart from addresses and P, so a
// better default shows as a gain.
type serveMix struct {
	seed  int64
	sched []serveReq
	gw    *fleet.Gateway
	cl    *client.Client
	sampleSet[[]byte]
}

// startFleet starts the gateway and its in-process replicas on loopback
// ephemeral ports.
func startFleet(cfg fleet.Config) (*fleet.Gateway, error) {
	cfg.Addr = "127.0.0.1:0"
	for i := 0; i < serveReplicas; i++ {
		cfg.Replicas = append(cfg.Replicas, fleet.ReplicaConfig{
			Server: &server.Config{Addr: "127.0.0.1:0", P: serveP}})
	}
	return fleet.Start(cfg)
}

func (w *serveMix) setup(seed int64, pl runPlan) error {
	w.seed = seed
	w.sched = serveSchedule(seed, pl.frames())
	var err error
	if w.gw, err = startFleet(fleet.Config{}); err != nil {
		return err
	}
	w.cl = client.New(w.gw.Addr().String())
	return nil
}

func (q serveReq) request() server.Request {
	r := server.Request{Dataset: serveDataset, Width: serveSize, Height: serveSize,
		RotX: q.rotX, RotY: q.rotY}
	if q.kind == kindPreview {
		r.Quality = server.QualityPreview
	}
	return r
}

// fetch sends one scheduled request and checks what can be checked
// without a reference: geometry, delivered quality, and that hits hit.
func fetch(cl *client.Client, q serveReq) (*client.Frame, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), frameDeadline)
	defer cancel()
	t0 := time.Now()
	f, err := cl.Render(ctx, q.request())
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if f.Width != serveSize || f.Height != serveSize || len(f.Gray) != serveSize*serveSize {
		return nil, d, fmt.Errorf("serve: reply is %dx%d with %d bytes", f.Width, f.Height, len(f.Gray))
	}
	if q.kind == kindPreview && f.Stats.Quality != server.QualityPreview {
		return nil, d, fmt.Errorf("serve: asked for preview, got %q", f.Stats.Quality)
	}
	if q.kind != kindPreview && f.Stats.Quality != server.QualityFull {
		return nil, d, fmt.Errorf("serve: asked for full, got %q", f.Stats.Quality)
	}
	return f, d, nil
}

func (w *serveMix) frame(i int, rec *recorder) error {
	q := w.sched[i]
	root := rec.begin("bench.frame", -1, i, -1)
	call := rec.begin("client.render", root, i, -1)
	f, d, err := fetch(w.cl, q)
	rec.end(call)
	rec.end(root)
	if err != nil {
		return err
	}
	if q.kind == kindFull {
		w.keep(i, f.Gray)
	}
	if rec != nil {
		// What the reply says about its own path, as spans inside the
		// call: the gateway's total centred in the caller's time (the two
		// flanks are client and socket), queue wait then ray casting
		// inside it.
		total := min(int64(f.Stats.TotalMS*1e6), int64(d))
		gw := rec.add("fleet.serve", call, (int64(d)-total)/2, total)
		if !f.Stats.Cached {
			queue := min(int64(f.Stats.QueueMS*1e6), total)
			rec.add("server.queue", gw, 0, queue)
			rec.add("server.render", gw, queue, min(int64(f.Stats.RenderMS*1e6), total-queue))
		}
	}
	return nil
}

// reference is the frame a one-shot library run produces for q.
func reference(q serveReq) ([]byte, error) {
	_, img, err := harness.RunWithImage(harness.Config{
		Dataset: serveDataset, Width: serveSize, Height: serveSize,
		P: serveP, Method: server.DefaultMethod, RotX: q.rotX, RotY: q.rotY,
	})
	if err != nil {
		return nil, err
	}
	return img.AppendGray(nil), nil
}

// gate requests every bookmark once — which also fills the gateway's
// cache, so the schedule's repeats are hits — then again, and compares
// both replies with a one-shot run.
func (w *serveMix) gate() error {
	for b, q := range bookmarkCameras(w.seed) {
		want, err := reference(q)
		if err != nil {
			return err
		}
		for pass, wantCached := range []bool{false, true} {
			f, _, err := fetch(w.cl, q)
			if err != nil {
				return fmt.Errorf("serve gate: bookmark %d: %w", b, err)
			}
			if f.Stats.Cached != wantCached {
				return fmt.Errorf("serve gate: bookmark %d pass %d: cached=%v", b, pass, f.Stats.Cached)
			}
			if err := checkGray(fmt.Sprintf("serve gate: bookmark %d pass %d", b, pass), f.Gray, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// retain keeps at most serveSamples of the requested indices, moved to
// the nearest full-quality fresh request at or after each.
func (w *serveMix) retain(idx ...int) {
	for _, i := range idx {
		for ; i < len(w.sched); i++ {
			if w.sched[i].kind == kindFull {
				w.sampleSet.retain(i)
				break
			}
		}
	}
}

func (w *serveMix) verify() error {
	if err := w.missing(); err != nil {
		return err
	}
	for i, gray := range w.got {
		want, err := reference(w.sched[i])
		if err != nil {
			return err
		}
		if err := checkGray(fmt.Sprintf("serve frame %d", i), gray, want); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveMix) scene() (scene, error) {
	vol, tf, err := harness.Dataset(serveDataset)
	q := bookmarkCameras(w.seed)[0]
	return scene{vol: vol, tf: tf, size: serveSize, p: serveP, rotX: q.rotX, rotY: q.rotY}, err
}

func (w *serveMix) close() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	if w.gw != nil {
		stop(w.gw.Shutdown)
		w.gw = nil
	}
}
