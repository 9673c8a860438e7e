package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/stats"
	"sortlast/internal/volume"
)

// The golden wire transcript pins what every registered method puts on
// the wire and what it counts: for each method, rank count and scene,
// the SHA-256 of each rank's ordered (dst, tag, payload) stream, every
// stats.Stage counter, and the SHA-256 of the gathered image; then, in
// a block of rows after all of those, what the gather that produced
// that image moved. The compositing rows of the table in testdata/ were
// generated from the per-method Composite bodies that preceded the
// schedule x codec drivers, so a codec or driver change that moves one
// byte or one counter fails here. Regenerate (only when a wire format is
// meant to change) with:
// go test ./internal/core -run TestGoldenTranscript -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_transcript.txt")

const goldenPath = "testdata/golden_transcript.txt"

const goldenW, goldenH = 48, 40

var goldenView = [3]float64{0.3, -0.5, 0.81}

func goldenRoot() volume.Box { return volume.Box{Hi: [3]int{64, 64, 64}} }

// goldenScenes are the two seeded scenes of the transcript.
var goldenScenes = []struct {
	name    string
	density float64
}{{"sparse", 0.08}, {"dense", 1}}

func goldenImages(scene int, p int) []*frame.Image {
	rng := rand.New(rand.NewSource(int64(1000*scene + p)))
	return randImages(rng, p, goldenW, goldenH, goldenScenes[scene].density)
}

// recordingTransport hashes the rank's algorithm messages (tags below
// mp.TagLimit) in send order; collectives pass through unrecorded.
type recordingTransport struct {
	mp.Transport
	mu   sync.Mutex
	sent [][]byte // per algorithm message: dst, tag, length, payload
}

func (t *recordingTransport) Send(to, tag int, payload []byte) error {
	if tag < mp.TagLimit {
		rec := make([]byte, 12, 12+len(payload))
		binary.LittleEndian.PutUint32(rec[0:], uint32(to))
		binary.LittleEndian.PutUint32(rec[4:], uint32(tag))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(payload)))
		t.mu.Lock()
		t.sent = append(t.sent, append(rec, payload...))
		t.mu.Unlock()
	}
	return t.Transport.Send(to, tag, payload)
}

func (t *recordingTransport) digest() string {
	h := sha256.New()
	for _, m := range t.sent {
		h.Write(m)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// transcript runs one method over one scene and returns a line per rank
// plus one for the gathered image, and separately the gather's own row.
func transcript(t *testing.T, name string, p, scene int) (lines []string, gather string) {
	t.Helper()
	comp, dec := methodWorld(t, name, goldenRoot(), p, 0)
	imgs := goldenImages(scene, p)
	ref := CompositeSequential(imgs, dec, goldenView)
	opts := mp.Options{RecvTimeout: 20 * time.Second}
	w, err := mp.NewWorld(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recordingTransport, p)
	ranks := make([]*stats.Rank, p)
	errs := make([]error, p)
	var final *frame.Image
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		recs[r] = &recordingTransport{Transport: w.Transport(r)}
		c, err := mp.FromTransport(r, p, recs[r], opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, c mp.Comm) {
			defer wg.Done()
			res, err := comp.Composite(c, dec, goldenView, imgs[r].Clone())
			if err != nil {
				errs[r] = err
				return
			}
			ranks[r] = res.Stats
			out, err := GatherImage(c, 0, res)
			if r == 0 {
				final = out
			}
			errs[r] = err
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s P=%d %s rank %d: %v", name, p, goldenScenes[scene].name, r, err)
		}
	}
	// The swap tree associates the over operator differently from the
	// front-to-back reference, so equality with it holds to rounding;
	// the exact bytes are pinned by the image digest instead.
	if d := ref.MaxAbsDiff(final, ref.Full()); d > 1e-9 {
		t.Fatalf("%s P=%d %s: final image differs from the sequential reference by %g",
			name, p, goldenScenes[scene].name, d)
	}
	lines = make([]string, p+1)
	var sent stats.Stage // what the non-root ranks put on the wire
	for r := 0; r < p; r++ {
		g := ranks[r].Gather
		sent.BytesSent += g.BytesSent
		sent.MsgsSent += g.MsgsSent
		sent.Codes += g.Codes
		sent.SentPixels += g.SentPixels
		lines[r] = fmt.Sprintf("%s %s P=%d r=%d wire=%s %s", goldenScenes[scene].name, name, p, r,
			recs[r].digest(), statsLine(t, name, ranks[r]))
	}
	image := sha256.Sum256(frame.EncodeRegion(final, final.Full(), nil))
	lines[p] = fmt.Sprintf("%s %s P=%d image=%x", goldenScenes[scene].name, name, p, image)
	root := ranks[0].Gather
	if root.BytesRecv != sent.BytesSent || root.MsgsRecv != sent.MsgsSent {
		t.Fatalf("%s P=%d %s: gather root received %d B / %d messages, ranks sent %d B / %d",
			name, p, goldenScenes[scene].name, root.BytesRecv, root.MsgsRecv, sent.BytesSent, sent.MsgsSent)
	}
	gather = fmt.Sprintf("%s %s P=%d gather bytes=%d msgs=%d codes=%d sent=%d stored=%d image=%x",
		goldenScenes[scene].name, name, p, root.BytesRecv, root.MsgsRecv, sent.Codes, sent.SentPixels,
		root.Composited, image)
	return lines, gather
}

// statsLine renders every pinned counter of one rank.
func statsLine(t *testing.T, name string, rk *stats.Rank) string {
	t.Helper()
	stages := rk.Stages
	if name == "direct" {
		stages = mergeDirectStages(t, stages)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "method=%s bound=%d fold=%s", rk.Method, rk.BoundScan, stageString(rk.Fold))
	for _, s := range stages {
		fmt.Fprintf(&sb, " s%d=%s", s.Stage, stageString(s))
	}
	return sb.String()
}

func stageString(s stats.Stage) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for _, f := range []struct {
		name string
		v    int
	}{
		{"recv", s.RecvPixels}, {"comp", s.Composited}, {"enc", s.Encoded}, {"codes", s.Codes},
		{"sent", s.SentPixels}, {"bsent", s.BytesSent}, {"brecv", s.BytesRecv},
		{"msent", s.MsgsSent}, {"mrecv", s.MsgsRecv},
	} {
		if f.v != 0 {
			fmt.Fprintf(&sb, " %s:%d", f.name, f.v)
		}
	}
	if s.RecvRectEmpty {
		sb.WriteString(" recv-empty")
	}
	if s.SendRectEmpty {
		sb.WriteString(" send-empty")
	}
	sb.WriteString(" }")
	return sb.String()
}

// mergeDirectStages undoes the one counter change since the table was
// generated: direct used to book its route round and its merge pass in
// a single stage1, and now reports them the way ds does — sends in
// stage 1 (route), receives and composites in stage 2 (merge), with the
// rect codec's empty-rectangle flags. Summing the two stages must give
// back the pinned stage1 counters, and neither stage may hold the other
// direction's traffic.
func mergeDirectStages(t *testing.T, stages []stats.Stage) []stats.Stage {
	t.Helper()
	if len(stages) != 2 {
		t.Fatalf("direct reports %d stages, want route + merge", len(stages))
	}
	route, merge := stages[0], stages[1]
	if route.MsgsRecv != 0 || route.BytesRecv != 0 || route.RecvPixels != 0 || route.Composited != 0 {
		t.Fatalf("direct: merge-side counters in the route stage: %+v", route)
	}
	if merge.MsgsSent != 0 || merge.BytesSent != 0 || merge.SentPixels != 0 || merge.Encoded != 0 || merge.Codes != 0 {
		t.Fatalf("direct: route-side counters in the merge stage: %+v", merge)
	}
	return []stats.Stage{{
		Stage:      1,
		RecvPixels: merge.RecvPixels, Composited: merge.Composited,
		Encoded: route.Encoded, Codes: route.Codes, SentPixels: route.SentPixels,
		BytesSent: route.BytesSent, BytesRecv: merge.BytesRecv,
		MsgsSent: route.MsgsSent, MsgsRecv: merge.MsgsRecv,
	}}
}

func TestGoldenTranscript(t *testing.T) {
	var got, gathers []string
	for scene := range goldenScenes {
		for _, spec := range registry {
			for _, p := range []int{4, 8, 3, 6} {
				lines, gather := transcript(t, spec.Name, p, scene)
				got = append(got, lines...)
				gathers = append(gathers, gather)
			}
		}
	}
	got = append(got, gathers...)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("transcript has %d lines, golden table has %d (method set or rank counts changed)",
			len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("transcript differs from the golden table:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
