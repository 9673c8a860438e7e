package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/mpnet"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

func testOpts() mp.Options { return mp.Options{RecvTimeout: 20 * time.Second} }

// scene bundles everything a compositing test needs.
type scene struct {
	vol    *volume.Volume
	tf     *transfer.Func
	cam    *render.Camera
	serial *frame.Image
}

func makeScene(t *testing.T, vol *volume.Volume, tf *transfer.Func, w, h int, rotX, rotY float64) *scene {
	t.Helper()
	cam := render.NewCamera(w, h, vol.Bounds(), rotX, rotY)
	serial := render.Raycast(vol, vol.Bounds(), cam, tf, render.Options{EarlyTermination: -1})
	return &scene{vol: vol, tf: tf, cam: cam, serial: serial}
}

// mustNew returns the named method with default settings.
func mustNew(t testing.TB, name string) Compositor {
	t.Helper()
	comp, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// nameOf is the method name a compositor reports in stats.Rank.Method
// (without the "+fold" suffix of a folding world).
func nameOf(c Compositor) string {
	switch m := c.(type) {
	case *swapLoop:
		return m.name
	case *ownerMerge:
		return m.name
	}
	return ""
}

// methodWorld builds the named method and the decomposition it runs over
// at p ranks the way the harness does. A positive tile replaces the tile
// edge of a tiled method (dfb); the others ignore it.
func methodWorld(t testing.TB, name string, bounds volume.Box, p, tile int) (Compositor, *partition.Decomposition) {
	t.Helper()
	dec, err := partition.Decompose(bounds, p)
	if err != nil {
		t.Fatal(err)
	}
	comp := mustNew(t, name)
	if m, ok := comp.(*ownerMerge); ok && m.tile > 0 && tile > 0 {
		m.tile = tile
	}
	return comp, dec
}

// world runs fn on every rank of a p-rank world and returns the first
// error.
type world func(p int, fn func(c mp.Comm) error) error

func inProcess(p int, fn func(c mp.Comm) error) error { return mp.Run(p, testOpts(), fn) }

// wrapRank interposes on rank r's transport before its Comm is built.
type wrapRank func(r int, tr mp.Transport) mp.Transport

// inProcessWrapped is inProcess with every rank's transport wrapped.
func inProcessWrapped(wrap wrapRank) world {
	return func(p int, fn func(c mp.Comm) error) error {
		w, err := mp.NewWorld(p, testOpts())
		if err != nil {
			return err
		}
		comms := make([]mp.Comm, p)
		for r := range comms {
			if comms[r], err = mp.FromTransport(r, p, wrap(r, w.Transport(r)), testOpts()); err != nil {
				return err
			}
		}
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := range comms {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if errs[r] = fn(comms[r]); errs[r] != nil {
					w.Shutdown() // release the ranks waiting on this one
				}
			}(r)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

// loopback runs the ranks as mpnet nodes over TCP sockets on 127.0.0.1.
func loopback(p int, fn func(c mp.Comm) error) error { return loopbackWrapped(nil)(p, fn) }

// loopbackWrapped is loopback with every rank's transport wrapped (nil:
// as dialed).
func loopbackWrapped(wrap wrapRank) world {
	return func(p int, fn func(c mp.Comm) error) error {
		listeners := make([]net.Listener, p)
		addrs := make([]string, p)
		for i := range listeners {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range listeners[:i] {
					l.Close()
				}
				return err
			}
			listeners[i], addrs[i] = ln, ln.Addr().String()
		}
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				cfg := mpnet.Config{Rank: r, Addrs: addrs, Listener: listeners[r],
					DialTimeout: 10 * time.Second, Opts: testOpts()}
				if wrap != nil {
					cfg.WrapTransport = func(tr mp.Transport) mp.Transport { return wrap(r, tr) }
				}
				node, err := mpnet.Connect(cfg)
				if err != nil {
					errs[r] = err
					return
				}
				defer node.Close()
				if errs[r] = fn(node.Comm()); errs[r] == nil {
					errs[r] = node.Comm().Barrier() // quiesce before closing
				}
			}(r)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

// runImages composites the given per-rank subimages (cloned, so callers
// can reuse them) and returns the image gathered at rank 0 — checked
// byte for byte against the dense reference gather — and the per-rank
// stats.
func runImages(t testing.TB, run world, comp Compositor, dec *partition.Decomposition,
	viewDir [3]float64, imgs []*frame.Image) (*frame.Image, []*stats.Rank) {
	t.Helper()
	p := len(imgs)
	ranksStats := make([]*stats.Rank, p)
	var final *frame.Image
	err := run(p, func(c mp.Comm) error {
		res, err := comp.Composite(c, dec, viewDir, imgs[c.Rank()].Clone())
		if err != nil {
			return err
		}
		ranksStats[c.Rank()] = res.Stats
		out, err := gatherBoth(c, res)
		if c.Rank() == 0 {
			final = out
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s P=%d: %v", nameOf(comp), p, err)
	}
	if final == nil {
		t.Fatalf("%s P=%d: no final image at root", nameOf(comp), p)
	}
	return final, ranksStats
}

// renderRanks ray casts every rank's subimage of the scene.
func renderRanks(sc *scene, dec *partition.Decomposition) []*frame.Image {
	imgs := make([]*frame.Image, dec.Size())
	for r := range imgs {
		imgs[r] = render.Raycast(sc.vol, dec.Box(r), sc.cam, sc.tf, render.Options{EarlyTermination: -1})
	}
	return imgs
}

// runComposite renders per-rank subimages and runs the compositor,
// returning the gathered final image and the per-rank stats.
func runComposite(t *testing.T, sc *scene, comp Compositor, dec *partition.Decomposition,
	p int) (*frame.Image, []*stats.Rank) {
	t.Helper()
	return runImages(t, inProcess, comp, dec, sc.cam.Dir, renderRanks(sc, dec))
}

// requireIdentical asserts got equals want byte for byte — the identity
// bar of the depth-order schedules, not an epsilon.
func requireIdentical(t *testing.T, label string, got, want *frame.Image) {
	t.Helper()
	full := want.Full()
	if got.Full() != full {
		t.Fatalf("%s: frame %v, want %v", label, got.Full(), full)
	}
	for y := full.Y0; y < full.Y1; y++ {
		for x := full.X0; x < full.X1; x++ {
			if got.At(x, y) != want.At(x, y) {
				t.Fatalf("%s: pixel (%d,%d) = %v, want %v",
					label, x, y, got.At(x, y), want.At(x, y))
			}
		}
	}
}

// blobSeed seeds the random-blob volume and the random cameras of
// TestAllMethodsMatchSerial. It is part of every such scene's name, so
// a failure message alone says how to reproduce it.
const blobSeed = 19990921

// blobVolume draws one volume of overlapping random blobs — how many,
// where, how large and how dense all come from rng.
func blobVolume(rng *rand.Rand) *volume.Volume {
	vol := volume.New(32, 28, 18)
	for i, n := 0, 4+rng.Intn(9); i < n; i++ {
		cx, cy, cz := rng.Float64()*32, rng.Float64()*28, rng.Float64()*18
		r, val := 2+rng.Float64()*6, uint8(60+rng.Intn(196))
		lo := [3]int{int(cx - r), int(cy - r), int(cz - r)}
		hi := [3]int{int(cx+r) + 1, int(cy+r) + 1, int(cz+r) + 1}
		b := vol.Bounds().Intersect(volume.Box{Lo: lo, Hi: hi})
		for z := b.Lo[2]; z < b.Hi[2]; z++ {
			for y := b.Lo[1]; y < b.Hi[1]; y++ {
				for x := b.Lo[0]; x < b.Hi[0]; x++ {
					dx, dy, dz := float64(x)-cx, float64(y)-cy, float64(z)-cz
					if dx*dx+dy*dy+dz*dz <= r*r {
						vol.Set(x, y, z, val)
					}
				}
			}
		}
	}
	return vol
}

// blobScenes draws three volumes from blobSeed and returns one scene per
// (volume, camera): n cameras drawn uniformly for each volume, and on
// the first volume also the fixed axis-aligned and grazing views (where
// footprints degenerate to slivers and depth order flips between
// neighbouring boxes).
func blobScenes(t *testing.T, n int) map[string]*scene {
	t.Helper()
	rng := rand.New(rand.NewSource(blobSeed))
	scenes := make(map[string]*scene)
	for v := 0; v < 3; v++ {
		vol := blobVolume(rng)
		var cams [][2]float64
		if v == 0 {
			cams = [][2]float64{{0, 0}, {90, 0}, {0, -90}, {180, 90}, {0, 89.75}, {-89.75, 45}}
		}
		for i := 0; i < n; i++ {
			cams = append(cams, [2]float64{rng.Float64()*360 - 180, rng.Float64()*360 - 180})
		}
		for _, c := range cams {
			name := fmt.Sprintf("blobs(seed %d, volume %d) rot=(%.4f,%.4f)", blobSeed, v, c[0], c[1])
			sc := makeScene(t, vol, transfer.Ramp("blobs", 50, 255, 0.35), 48, 40, c[0], c[1])
			if sc.serial.CountNonBlank(sc.serial.Full()) == 0 {
				t.Fatalf("%s: serial render is blank; the scene tests nothing", name)
			}
			scenes[name] = sc
		}
	}
	return scenes
}

// Every compositor must reproduce the serial rendering (the master
// integration property), across datasets, rotations — the paper's four
// fixed views plus seeded random cameras over three seeded random
// volumes — and rank counts — powers of two, and non-powers of two
// folded or over the folded decomposition's boxes — in process, and the seeded
// family once more over loopback TCP. No method is skipped at any P.
func TestAllMethodsMatchSerial(t *testing.T) {
	scenes := map[string]*scene{
		"engine_low":  makeScene(t, volume.EngineBlock(32, 32, 14), transfer.EngineLow(), 48, 48, 0, 0),
		"engine_high": makeScene(t, volume.EngineBlock(32, 32, 14), transfer.EngineHigh(), 48, 48, 25, 40),
		"head":        makeScene(t, volume.HeadPhantom(32, 32, 15), transfer.Head(), 48, 48, 10, -30),
		"cube":        makeScene(t, volume.SolidCube(32, 32, 14), transfer.Cube(), 48, 48, 45, 45),
	}
	blobs := blobScenes(t, 3)
	for name, sc := range blobs {
		scenes[name] = sc
	}
	check := func(name string, sc *scene, run world, ps []int) {
		for _, p := range ps {
			for _, spec := range registry {
				comp, dec := methodWorld(t, spec.Name, sc.vol.Bounds(), p, 0)
				final, _ := runImages(t, run, comp, dec, sc.cam.Dir, renderRanks(sc, dec))
				if d := sc.serial.MaxAbsDiff(final, sc.serial.Full()); d > 1e-9 {
					t.Errorf("%s %s P=%d: final image differs from serial by %g",
						name, spec.Name, p, d)
				}
			}
		}
	}
	for name, sc := range scenes {
		check(name, sc, inProcess, []int{1, 2, 3, 4, 6, 8})
	}
	check("head over tcp", scenes["head"], loopback, []int{4, 6})
	for name, sc := range blobs {
		check(name+" over tcp", sc, loopback, []int{4, 6})
	}
}

// The four paper methods are communication optimizations of the same
// compositing tree, so their outputs must be bit-identical, not merely
// close.
func TestPaperMethodsBitIdentical(t *testing.T) {
	sc := makeScene(t, volume.HeadPhantom(32, 32, 15), transfer.Head(), 64, 64, 30, 60)
	const p = 8
	dec, err := partition.Decompose(sc.vol.Bounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := runComposite(t, sc, mustNew(t, "bs"), dec, p)
	for _, name := range []string{"bsbr", "bslc", "bsbrc"} {
		m := mustNew(t, name)
		got, _ := runComposite(t, sc, m, dec, p)
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				if got.At(x, y) != ref.At(x, y) {
					t.Fatalf("%s differs from BS at (%d,%d): %v vs %v",
						name, x, y, got.At(x, y), ref.At(x, y))
				}
			}
		}
	}
}

// Eq. 9's robust part: M_max(BS) >= M_max(BSBR) >= M_max(BSBRC) and
// M_max(BS) >= M_max(BSLC), modulo per-message framing bytes (the
// paper's "in general"). These hold on any scene because a bounding
// rectangle never exceeds its half and an encoding never exceeds its
// rectangle.
func TestMaxMessageInequality(t *testing.T) {
	scenes := map[string]*scene{
		"engine_low":  makeScene(t, volume.EngineBlock(48, 48, 20), transfer.EngineLow(), 96, 96, 0, 0),
		"engine_high": makeScene(t, volume.EngineBlock(48, 48, 20), transfer.EngineHigh(), 96, 96, 0, 0),
		"cube":        makeScene(t, volume.SolidCube(48, 48, 20), transfer.Cube(), 96, 96, 20, 30),
	}
	for name, sc := range scenes {
		for _, p := range []int{4, 8, 16} {
			dec, err := partition.Decompose(sc.vol.Bounds(), p)
			if err != nil {
				t.Fatal(err)
			}
			mmax := map[string]int{}
			for _, m := range PaperMethods() {
				comp, _ := New(m)
				_, rs := runComposite(t, sc, comp, dec, p)
				mmax[m] = stats.MaxMessageBytes(rs)
			}
			slack := 64 * dec.Stages() // per-message framing allowance
			if mmax["bs"]+slack < mmax["bsbr"] {
				t.Errorf("%s P=%d: M_max BS %d < BSBR %d", name, p, mmax["bs"], mmax["bsbr"])
			}
			if mmax["bsbr"]+slack < mmax["bsbrc"] {
				t.Errorf("%s P=%d: M_max BSBR %d < BSBRC %d", name, p, mmax["bsbr"], mmax["bsbrc"])
			}
			if mmax["bs"]+slack < mmax["bslc"] {
				t.Errorf("%s P=%d: M_max BS %d < BSLC %d", name, p, mmax["bs"], mmax["bslc"])
			}
		}
	}
}

// Eq. 9's load-balancing part: M_max(BSBRC) >= M_max(BSLC) appears when
// stage split planes lie along the view axis, so paired footprints
// overlap in screen space and the bounding-rectangle methods must ship a
// partner's whole content while BSLC ships an interleaved half. A
// depth-major volume viewed head-on makes stage 1 exactly that case —
// the geometry the paper's 256x256x110 volumes hit at larger P.
func TestMaxMessageBSLCWinsOnOverlap(t *testing.T) {
	vol := volume.EngineBlock(32, 32, 96) // z is the largest extent
	sc := makeScene(t, vol, transfer.EngineLow(), 96, 96, 0, 0)
	for _, p := range []int{2, 4, 8} {
		dec, err := partition.Decompose(sc.vol.Bounds(), p)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Axes[0] != 2 {
			t.Fatalf("test premise broken: level-0 axis = %d, want z", dec.Axes[0])
		}
		mmax := map[string]int{}
		for _, m := range PaperMethods() {
			comp, _ := New(m)
			_, rs := runComposite(t, sc, comp, dec, p)
			mmax[m] = stats.MaxMessageBytes(rs)
		}
		slack := 64 * dec.Stages()
		if mmax["bsbrc"]+slack < mmax["bslc"] {
			t.Errorf("P=%d: M_max BSBRC %d < BSLC %d on overlapping footprints",
				p, mmax["bsbrc"], mmax["bslc"])
		}
		if mmax["bsbr"]+slack < mmax["bslc"] {
			t.Errorf("P=%d: M_max BSBR %d < BSLC %d on overlapping footprints",
				p, mmax["bsbr"], mmax["bslc"])
		}
	}
}

// The non-power-of-two fold must also reproduce the serial image, for
// every inner method and odd rank counts.
func TestFoldedMatchesSerial(t *testing.T) {
	sc := makeScene(t, volume.EngineBlock(32, 32, 16), transfer.EngineLow(), 48, 48, 15, 25)
	for _, p := range []int{2, 3, 5, 6, 7, 11, 12} {
		dec, err := partition.Decompose(sc.vol.Bounds(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range registry {
			if !spec.Caps.Paper {
				continue
			}
			comp := mustNew(t, spec.Name)
			want := nameOf(comp)
			if dec.Extras() > 0 {
				want += "+fold"
			}
			final, rs := runImages(t, inProcess, comp, dec, sc.cam.Dir, renderRanks(sc, dec))
			if d := sc.serial.MaxAbsDiff(final, sc.serial.Full()); d > 1e-9 {
				t.Errorf("%s P=%d: differs from serial by %g", want, p, d)
			}
			for _, r := range rs {
				if r.Method != want {
					t.Errorf("P=%d rank %d reports method %q, want %q", p, r.RankID, r.Method, want)
				}
			}
		}
	}
}

// BSBR/BSBRC must not ship blank-only messages as pixels: on the cube
// (tiny footprint) most stage messages must be empty rectangles, and the
// empty-rectangle counter must see them.
func TestBoundingRectSkipsEmptyHalves(t *testing.T) {
	sc := makeScene(t, volume.SolidCube(48, 48, 20), transfer.Cube(), 96, 96, 0, 0)
	const p = 16
	dec, err := partition.Decompose(sc.vol.Bounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bsbr", "bsbrc"} {
		m := mustNew(t, name)
		_, rs := runComposite(t, sc, m, dec, p)
		empties := 0
		for _, r := range rs {
			empties += r.EmptyRecvRects()
		}
		if empties == 0 {
			t.Errorf("%s: no empty receiving rectangles on the cube at P=%d", name, p)
		}
		// Empty-rect messages must cost only the header.
		for _, r := range rs {
			for _, s := range r.Stages {
				if s.RecvRectEmpty && s.BytesRecv != frame.RectBytes {
					t.Errorf("%s: empty rect stage received %d bytes, want %d",
						name, s.BytesRecv, frame.RectBytes)
				}
			}
		}
	}
}

// BSLC's interleaving balances received bytes: the spread of per-rank
// received bytes must be smaller under BSLC than under BSBRC on a scene
// with very uneven non-blank distribution.
func TestBSLCBalancesLoad(t *testing.T) {
	// An off-center object makes block halves very uneven.
	vol := volume.New(48, 48, 24)
	vol.Fill(volume.Box{Lo: [3]int{2, 2, 2}, Hi: [3]int{18, 18, 20}}, 130)
	sc := makeScene(t, vol, transfer.Cube(), 96, 96, 0, 0)
	const p = 8
	dec, err := partition.Decompose(sc.vol.Bounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(rs []*stats.Rank) float64 {
		min, max := 1<<62, 0
		for _, r := range rs {
			b := r.BytesReceived()
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if max == 0 {
			return 0
		}
		return float64(max-min) / float64(max)
	}
	_, bslc := runComposite(t, sc, mustNew(t, "bslc"), dec, p)
	_, bsbrc := runComposite(t, sc, mustNew(t, "bsbrc"), dec, p)
	if spread(bslc) > spread(bsbrc) {
		t.Errorf("BSLC spread %.3f not tighter than BSBRC %.3f",
			spread(bslc), spread(bsbrc))
	}
}

// traffic is what one rank moved: payload bytes and messages, each way.
type traffic struct{ bytesSent, msgsSent, bytesRecv, msgsRecv int }

// countingTransport sums the algorithm messages (tags below
// mp.TagLimit) its rank's transport carries; collectives pass through
// uncounted. One rank goroutine drives it, and the totals are read after
// the world is joined.
type countingTransport struct {
	mp.Transport
	traffic
}

func (t *countingTransport) Send(to, tag int, payload []byte) error {
	if tag < mp.TagLimit {
		t.bytesSent += len(payload)
		t.msgsSent++
	}
	return t.Transport.Send(to, tag, payload)
}

func (t *countingTransport) Recv(from, tag int, timeout time.Duration) ([]byte, error) {
	msg, err := t.Transport.Recv(from, tag, timeout)
	if err == nil && tag < mp.TagLimit {
		t.bytesRecv += len(msg)
		t.msgsRecv++
	}
	return msg, err
}

// counted is the same quantity as the rank's counters have it: the
// stages plus the fold pre-stage.
func counted(rk *stats.Rank) traffic {
	n := traffic{bytesSent: rk.Fold.BytesSent, msgsSent: rk.Fold.MsgsSent,
		bytesRecv: rk.BytesReceived(), msgsRecv: rk.Fold.MsgsRecv}
	for _, s := range rk.Stages {
		n.bytesSent += s.BytesSent
		n.msgsSent += s.MsgsSent
		n.msgsRecv += s.MsgsRecv
	}
	return n
}

// The stage counters are the one count of what compositing moves: for
// every method, on both transports, at power-of-two and folded rank
// counts, each rank's counters equal what its transport carried, byte
// for byte and message for message, and across the world everything
// sent is received.
func TestStatsMatchTransport(t *testing.T) {
	viewDir := [3]float64{0.3, -0.5, 0.81}
	transports := []struct {
		name string
		over func(wrapRank) world
	}{{"mp", inProcessWrapped}, {"mpnet", loopbackWrapped}}
	for _, tp := range transports {
		for _, p := range []int{3, 4, 8} {
			imgs := randImages(rand.New(rand.NewSource(int64(p))), p, 48, 40, 0.3)
			for _, name := range Names() {
				label := fmt.Sprintf("%s over %s P=%d", name, tp.name, p)
				comp, dec := methodWorld(t, name, testRoot(), p, 16)
				carried := make([]*countingTransport, p)
				run := tp.over(func(r int, tr mp.Transport) mp.Transport {
					carried[r] = &countingTransport{Transport: tr}
					return carried[r]
				})
				_, ranks := runImages(t, run, comp, dec, viewDir, imgs)
				var world traffic
				for r, rk := range ranks {
					mine := counted(rk)
					if mine != carried[r].traffic {
						t.Errorf("%s rank %d: counters %+v, transport carried %+v", label, r, mine, carried[r].traffic)
					}
					world.bytesSent += mine.bytesSent
					world.msgsSent += mine.msgsSent
					world.bytesRecv += mine.bytesRecv
					world.msgsRecv += mine.msgsRecv
				}
				if world.bytesSent != world.bytesRecv || world.msgsSent != world.msgsRecv || world.msgsSent == 0 {
					t.Errorf("%s: sent and received differ, or nothing moved: %+v", label, world)
				}
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, n := range Names() {
		c, err := New(n)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
		}
		if nameOf(c) == "" {
			t.Errorf("%q has empty display name", n)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown compositor must error")
	}
	if len(PaperMethods()) != 4 {
		t.Error("the paper evaluates four methods")
	}
}

func TestCheckWorldMismatch(t *testing.T) {
	dec, err := partition.Decompose(volume.Box{Hi: [3]int{16, 16, 16}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = mp.Run(2, testOpts(), func(c mp.Comm) error {
		img := frame.NewImage(8, 8)
		_, err := mustNew(t, "bs").Composite(c, dec, [3]float64{0, 0, 1}, img)
		if err == nil {
			return fmt.Errorf("size mismatch must be rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Stage ownership replay: after log P stages the rank regions of the
// swap family tile the full frame exactly.
func TestFinalRegionsTileFrame(t *testing.T) {
	sc := makeScene(t, volume.SolidCube(32, 32, 16), transfer.Cube(), 48, 48, 0, 0)
	const p = 16
	dec, err := partition.Decompose(sc.vol.Bounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	owns := make([]Ownership, p)
	err = mp.Run(p, testOpts(), func(c mp.Comm) error {
		img := render.Raycast(sc.vol, dec.Box(c.Rank()), sc.cam, sc.tf, render.Options{})
		res, err := mustNew(t, "bsbrc").Composite(c, dec, sc.cam.Dir, img)
		if err != nil {
			return err
		}
		owns[c.Rank()] = res.Own
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, o := range owns {
		total += o.Area()
	}
	if total != 48*48 {
		t.Errorf("owned areas sum to %d, want %d", total, 48*48)
	}
	// Pairwise disjoint.
	for i := 0; i < p; i++ {
		ri := owns[i].(RectOwn).R
		for j := i + 1; j < p; j++ {
			if ri.Overlaps(owns[j].(RectOwn).R) {
				t.Errorf("regions %d and %d overlap: %v %v", i, j, ri, owns[j].(RectOwn).R)
			}
		}
	}
}
