package main

import (
	"math"
	"testing"

	"sortlast/internal/frame"
)

func TestSameSeedSameSequence(t *testing.T) {
	a, b := serveSchedule(7, 2000), serveSchedule(7, 2000)
	if scheduleHash(a) != scheduleHash(b) {
		t.Error("the same seed gave two request sequences")
	}
	if scheduleHash(a) == scheduleHash(serveSchedule(8, 2000)) {
		t.Error("two seeds gave the same request sequence")
	}
	if newOrbit(7, 100) != newOrbit(7, 100) || newOrbit(7, 100) == newOrbit(8, 100) {
		t.Error("orbit does not follow the seed")
	}
	x1, y1 := composeCamera(7)
	x2, y2 := composeCamera(7)
	if x1 != x2 || y1 != y2 {
		t.Error("compose camera does not follow the seed")
	}
	v1, _ := fogVolume(7)
	v2, _ := fogVolume(7)
	v3, _ := fogVolume(8)
	same, differ := true, false
	for i := range v1.Data {
		same = same && v1.Data[i] == v2.Data[i]
		differ = differ || v1.Data[i] != v3.Data[i]
		if v1.Data[i] < 96 || v1.Data[i] > 159 {
			t.Fatalf("fog voxel %d = %d, outside [96, 159]", i, v1.Data[i])
		}
	}
	if !same || !differ {
		t.Error("fog volume does not follow the seed")
	}
}

// Every block of the serving mix holds the same counts, so every chunk
// does; fresh cameras never repeat and never collide with a bookmark,
// and all cameras sit on the gateway's cache grid.
func TestServeScheduleMix(t *testing.T) {
	const n = 4000
	reqs := serveSchedule(3, n)
	if len(reqs) != n {
		t.Fatalf("got %d requests, want %d", len(reqs), n)
	}
	marks := map[[2]float64]bool{}
	for _, m := range bookmarkCameras(3) {
		marks[[2]float64{m.rotX, m.rotY}] = true
	}
	if len(marks) != bookmarks {
		t.Fatalf("%d distinct bookmarks, want %d", len(marks), bookmarks)
	}
	seen := map[[2]float64]bool{}
	for b := 0; b+serveBlock <= n; b += serveBlock {
		var count [3]int
		for _, q := range reqs[b : b+serveBlock] {
			count[q.kind]++
		}
		if count[kindHit] != serveHits || count[kindPreview] != servePreviews {
			t.Fatalf("block at %d holds %v, want %d hits and %d previews", b, count, serveHits, servePreviews)
		}
	}
	for i, q := range reqs {
		for _, deg := range []float64{q.rotX, q.rotY} {
			if g := deg / camGrid; g != math.Round(g) {
				t.Fatalf("request %d: %v° is off the %v° grid", i, deg, camGrid)
			}
		}
		cam := [2]float64{q.rotX, q.rotY}
		if q.kind == kindHit {
			if !marks[cam] {
				t.Fatalf("request %d: hit at %v is not a bookmark", i, cam)
			}
			continue
		}
		if marks[cam] || seen[cam] {
			t.Fatalf("request %d: fresh camera %v was used before", i, cam)
		}
		seen[cam] = true
	}
}

func TestOrbitCoversOneTurnPerChunk(t *testing.T) {
	o := newOrbit(5, 40)
	turn := map[float64]bool{}
	for i := 17; i < 17+40; i++ { // any 40 consecutive frames
		_, y := o.camera(i)
		turn[math.Round((y-o.phase)*1e6)/1e6] = true
	}
	if len(turn) != 40 {
		t.Errorf("40 consecutive frames cover %d distinct angles, want 40", len(turn))
	}
}

func TestRetainedOutputsAreTracked(t *testing.T) {
	var s sampleSet[int]
	s.retain(3, 9)
	s.keep(3, 30)
	s.keep(4, 40) // not asked for
	if err := s.missing(); err == nil {
		t.Error("frame 9 never arrived but nothing is missing")
	}
	s.keep(9, 90)
	if err := s.missing(); err != nil {
		t.Error(err)
	}
	if len(s.got) != 2 || s.got[3] != 30 || s.got[9] != 90 {
		t.Errorf("kept %v", s.got)
	}
}

// One flipped byte, or one changed pixel, must fail verification.
func TestCorruptOutputFailsVerification(t *testing.T) {
	want := make([]byte, 256*256)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got := append([]byte(nil), want...)
	if err := checkGray("frame", got, want); err != nil {
		t.Fatalf("identical frames: %v", err)
	}
	got[12345] ^= 1
	if err := checkGray("frame", got, want); err == nil {
		t.Error("a flipped byte passed verification")
	}
	if err := checkGray("frame", want[:100], want); err == nil {
		t.Error("a short frame passed verification")
	}

	ref := frame.NewImage(8, 8)
	ref.Grow(ref.Full())
	ref.Set(3, 3, frame.Pixel{I: 0.5, A: 0.5})
	img := ref.Clone()
	if err := checkImage("image", img, ref); err != nil {
		t.Fatalf("identical images: %v", err)
	}
	img.Set(3, 3, frame.Pixel{I: 0.5 + 1e-6, A: 0.5})
	if err := checkImage("image", img, ref); err == nil {
		t.Error("a changed pixel passed verification")
	}
	if err := checkImage("image", nil, ref); err == nil {
		t.Error("a missing image passed verification")
	}
}
