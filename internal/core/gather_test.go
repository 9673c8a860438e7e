package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/stats"
)

// eachOwned calls fn for every pixel own covers, in the descriptor's
// canonical order, with the position of the pixel's region among the
// ones own travels as (Result.Parts' index).
func eachOwned(own Ownership, fn func(i, x, y int)) {
	rect := func(i int, r frame.Rect) {
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				fn(i, x, y)
			}
		}
	}
	switch own := own.(type) {
	case RectOwn:
		rect(0, own.R)
	case RectSetOwn:
		for i, r := range own.Rs {
			rect(i, r)
		}
	case IntervalOwn:
		for _, v := range own.Iv {
			for i := v.Lo; i < v.Hi; i++ {
				fn(0, i%own.W, i/own.W)
			}
		}
	}
}

// sameParts presents img as the image behind every region of f: a rank
// whose owned regions all live in one image.
func sameParts(f gatherForm, img *frame.Image) []*frame.Image {
	parts := make([]*frame.Image, len(f.regions))
	for i := range parts {
		parts[i] = img
	}
	return parts
}

// denseGather is the gather GatherImage replaced, kept as the test
// reference: every rank ships its descriptor and every owned pixel,
// blanks included, 16 bytes each, and the root stores them one by one.
func denseGather(c mp.Comm, root int, res *Result) (*frame.Image, error) {
	payload := res.Own.AppendWire(nil)
	var px [frame.PixelBytes]byte
	eachOwned(res.Own, func(i, x, y int) {
		frame.PutPixel(px[:], res.Parts[i].At(x, y))
		payload = append(payload, px[:]...)
	})
	parts, err := c.Gather(root, payload)
	if err != nil || c.Rank() != root {
		return nil, err
	}
	full := res.Full
	final := frame.NewImage(full.Dx(), full.Dy())
	for r, part := range parts {
		own, rest, err := ParseOwnership(part)
		if err == nil {
			err = own.Validate(full)
		}
		if err == nil && len(rest) != own.Area()*frame.PixelBytes {
			err = fmt.Errorf("%d payload bytes for %d pixels", len(rest), own.Area())
		}
		if err != nil {
			return nil, fmt.Errorf("dense gather from rank %d: %w", r, err)
		}
		eachOwned(own, func(_, x, y int) {
			if p := frame.GetPixel(rest); !p.Blank() {
				final.Set(x, y, p)
			}
			rest = rest[frame.PixelBytes:]
		})
	}
	return final, nil
}

// gatherBoth gathers res the dense way and the production way and
// requires the two images to agree byte for byte; every test that goes
// through runImages therefore checks the sparse gather against the
// reference for its method, rank count and transport. The reference
// goes first: GatherImage consumes res.
func gatherBoth(c mp.Comm, res *Result) (*frame.Image, error) {
	ref, err := denseGather(c, 0, res)
	if err != nil {
		return nil, err
	}
	out, err := GatherImage(c, 0, res)
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	full := ref.Full()
	if out.Full() != full {
		return nil, fmt.Errorf("gathered frame %v, want %v", out.Full(), full)
	}
	if !full.ContainsRect(out.Bounds()) {
		return nil, fmt.Errorf("gathered bounds %v outside frame %v", out.Bounds(), full)
	}
	for y := full.Y0; y < full.Y1; y++ {
		for x := full.X0; x < full.X1; x++ {
			if out.At(x, y) != ref.At(x, y) {
				return nil, fmt.Errorf("gathered pixel (%d,%d) = %v, dense gather has %v",
					x, y, out.At(x, y), ref.At(x, y))
			}
		}
	}
	return out, nil
}

// Ranks that own nothing still take part in the gather: the extra ranks
// of a fold, ranks beyond the tile count, strips of zero height. The
// image must come out identical to the sequential reference whichever
// rank is empty — including the root's neighbours and, for the strips
// and tiles dealt from rank 0 up, the last ranks.
func TestGatherWithEmptyOwners(t *testing.T) {
	viewDir := [3]float64{0.3, -0.5, 0.81}
	for _, tc := range []struct {
		name         string
		method       string
		p, w, h      int
		tile         int
		wantEmpty    int // non-root ranks owning no pixel
		byteForByte  bool
		sparseFrames bool
	}{
		{"fold P=3", "bsbrc", 3, 48, 40, 0, 1, false, true},
		{"fold P=6", "bslc", 6, 48, 40, 0, 2, false, false},
		{"fold P=7", "bs", 7, 48, 40, 0, 3, false, true},
		{"P > tiles", "dfb", 8, 48, 40, 32, 4, true, true},
		{"P > tiles, dense", "dfb", 6, 33, 20, 64, 5, true, false},
		{"P > image height", "ds", 8, 40, 5, 0, 2, true, false},
		{"P > image height, direct", "direct", 16, 16, 3, 0, 12, true, true},
	} {
		density := 1.0
		if tc.sparseFrames {
			density = 0.08
		}
		rng := rand.New(rand.NewSource(int64(31*tc.p + tc.w)))
		imgs := randImages(rng, tc.p, tc.w, tc.h, density)
		comp, dec, lay := methodWorld(t, tc.method, testRoot(), tc.p, tc.tile)
		ref := CompositeSequentialLayout(imgs, lay, viewDir)
		got, rs := runImages(t, inProcess, comp, dec, viewDir, imgs)
		if tc.byteForByte {
			requireIdentical(t, tc.name, got, ref)
		} else if d := ref.MaxAbsDiff(got, ref.Full()); d > 1e-9 {
			t.Errorf("%s: differs from the sequential reference by %g", tc.name, d)
		}
		empty := 0
		for _, r := range rs {
			if r.Gather.SentPixels == 0 && r.RankID != 0 {
				empty++
			}
		}
		if empty < tc.wantEmpty {
			t.Errorf("%s: %d ranks sent no pixel, want at least %d (the case tests nothing)",
				tc.name, empty, tc.wantEmpty)
		}
	}
}

// The gather stage's counters must be conserved across the world and
// must stay out of the compositing stages.
func TestGatherStageCounters(t *testing.T) {
	viewDir := [3]float64{0.3, -0.5, 0.81}
	for _, spec := range registry {
		for _, p := range []int{4, 6} {
			imgs := goldenImages(0, p)
			comp, dec, _ := methodWorld(t, spec.Name, goldenRoot(), p, 16)
			_, rs := runImages(t, inProcess, comp, dec, viewDir, imgs)
			var sent, msgs int
			for _, r := range rs {
				g := r.Gather
				if g.Label != "gather" {
					t.Fatalf("%s P=%d rank %d: gather stage labelled %q", spec.Name, p, r.RankID, g.Label)
				}
				for _, s := range r.Stages {
					if s.Label == g.Label {
						t.Fatalf("%s P=%d: the gather was appended to Stages", spec.Name, p)
					}
				}
				if r.RankID == 0 {
					if g.MsgsSent != 0 || g.BytesSent != 0 {
						t.Errorf("%s P=%d: root sent %d gather messages", spec.Name, p, g.MsgsSent)
					}
					continue
				}
				if g.MsgsSent != 1 || g.MsgsRecv != 0 {
					t.Errorf("%s P=%d rank %d: sent %d, received %d gather messages",
						spec.Name, p, r.RankID, g.MsgsSent, g.MsgsRecv)
				}
				sent += g.BytesSent
				msgs += g.MsgsSent
			}
			if root := rs[0].Gather; root.BytesRecv != sent || root.MsgsRecv != msgs || msgs != p-1 {
				t.Errorf("%s P=%d: root received %d B in %d messages, ranks sent %d B in %d",
					spec.Name, p, root.BytesRecv, root.MsgsRecv, sent, msgs)
			}
		}
	}
}

// A gather message that does not parse, does not fit the frame, or
// carries bytes past its last region must fail the root's gather with
// an error naming the rank — never a panic, never a silently wrong
// image.
func TestGatherRejectsMalformedParts(t *testing.T) {
	full := frame.XYWH(0, 0, goldenW, goldenH)
	src := goldenImages(0, 4)[1]
	bad := map[string][]byte{
		"outside frame":    RectOwn{R: frame.XYWH(goldenW-2, 0, 8, 8)}.AppendWire(nil),
		"unknown kind":     {9},
		"empty":            nil,
		"interval width":   IntervalOwn{W: goldenW + 1}.AppendWire(nil),
		"rect set, no rle": append(RectSetOwn{Rs: []frame.Rect{frame.XYWH(0, 0, 4, 4)}}.AppendWire(nil), 1, 0, 0, 0, 0, 0, 0, 0),
	}
	for _, own := range gatherOwnerships(full) {
		f, err := formOf(own, full)
		if err != nil {
			t.Fatal(err)
		}
		parts := sameParts(f, src)
		good := f.encode(own.AppendWire(nil), new(arena), parts, f.bound(parts), new(stats.Stage))
		bad[fmt.Sprintf("%T, trailing byte", own)] = append(append([]byte(nil), good...), 0)
		bad[fmt.Sprintf("%T, truncated", own)] = good[:len(good)-1]
		bad[fmt.Sprintf("%T, descriptor only", own)] = own.AppendWire(nil)
	}
	for name, part := range bad {
		err := mp.Run(2, testOpts(), func(c mp.Comm) error {
			if c.Rank() == 1 {
				_, err := c.Gather(0, part)
				return err
			}
			res := &Result{Full: full, Parts: []*frame.Image{frame.NewImage(goldenW, goldenH)},
				Own: RectOwn{}, Stats: new(stats.Rank)}
			_, err := GatherImage(c, 0, res)
			if err == nil {
				return fmt.Errorf("accepted")
			}
			if !strings.Contains(err.Error(), "rank 1") {
				return fmt.Errorf("error does not name the sender: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The root stores owned pixels instead of compositing them, which is
// exact only for disjoint ownership, so overlapping owned regions — of
// two ranks or within one — are refused with an *overlapError naming
// both ranks; regions that only touch, and empty ones, pass. An
// interval is checked as the scanline pieces it covers, which must be
// exactly its pixels.
func TestDisjointOwnership(t *testing.T) {
	full := frame.XYWH(0, 0, 64, 48)
	tile := func(x, y int) frame.Rect { return frame.XYWH(x, y, 16, 16) }
	iv := func(v ...Interval) IntervalOwn { return IntervalOwn{W: 64, Iv: v} }
	for _, tc := range []struct {
		name  string
		owns  []Ownership // rank r owns owns[r]
		ranks []int       // the two ranks named, nil for disjoint
	}{
		{"rect/rect", []Ownership{RectOwn{R: frame.XYWH(0, 0, 64, 20)}, RectOwn{R: frame.XYWH(0, 19, 64, 29)}}, []int{0, 1}},
		{"rect/rect touching", []Ownership{RectOwn{R: frame.XYWH(0, 0, 64, 20)}, RectOwn{R: frame.XYWH(0, 20, 64, 28)}}, nil},
		{"tile/tile", []Ownership{RectSetOwn{Rs: []frame.Rect{tile(0, 0), tile(32, 0)}},
			RectSetOwn{Rs: []frame.Rect{tile(16, 0), tile(40, 8)}}}, []int{0, 1}},
		{"tile/tile dealt", []Ownership{RectSetOwn{Rs: []frame.Rect{tile(0, 0), tile(32, 0), tile(16, 16)}},
			RectSetOwn{Rs: []frame.Rect{tile(16, 0), tile(48, 0), tile(0, 16)}}}, nil},
		{"tiles within a rank", []Ownership{RectOwn{}, RectSetOwn{Rs: []frame.Rect{tile(0, 0), tile(8, 8)}}}, []int{1, 1}},
		{"interval/interval", []Ownership{iv(Interval{0, 70}), iv(Interval{69, 100})}, []int{0, 1}},
		{"interval/interval adjacent", []Ownership{iv(Interval{0, 70}, Interval{200, 300}), iv(Interval{70, 200})}, nil},
		{"intervals within a rank", []Ownership{iv(Interval{10, 20}, Interval{0, 11})}, []int{0, 0}},
		{"interval/rect", []Ownership{iv(Interval{645, 646}), RectOwn{R: frame.XYWH(5, 10, 1, 1)}}, []int{0, 1}},
		{"empty regions", []Ownership{RectOwn{}, RectOwn{R: full}, iv(Interval{10, 10}), RectSetOwn{}}, nil},
	} {
		ar := new(arena)
		for r, own := range tc.owns {
			f, err := formOf(own, full)
			if err != nil {
				t.Fatal(err)
			}
			ar.cs = f.claims(r, ar.cs)
		}
		err := disjoint(ar)
		var oe *overlapError
		switch {
		case tc.ranks == nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ranks == nil:
		case !errors.As(err, &oe):
			t.Errorf("%s: overlap not refused (%v)", tc.name, err)
		case min(oe.a.rank, oe.b.rank) != tc.ranks[0] || max(oe.a.rank, oe.b.rank) != tc.ranks[1]:
			t.Errorf("%s: %v, want ranks %v named", tc.name, err, tc.ranks)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		lo := rng.Intn(full.Area())
		v := Interval{lo, lo + rng.Intn(full.Area()-lo+1)}
		f, _ := formOf(iv(v), full)
		covered := 0
		for _, c := range f.claims(0, nil) {
			covered += c.r.Area()
			for y := c.r.Y0; y < c.r.Y1; y++ {
				for x := c.r.X0; x < c.r.X1; x++ {
					if idx := y*64 + x; idx < v.Lo || idx >= v.Hi {
						t.Fatalf("interval %v: claim %v covers pixel %d", v, c.r, idx)
					}
				}
			}
		}
		if covered != v.Len() {
			t.Fatalf("interval %v: claims cover %d pixels", v, covered)
		}
	}
}

// A gather whose parts claim overlapping regions fails at the root with
// the *overlapError, before the final image is allocated — no panic, no
// image — whether the overlap is between two senders or a sender and
// the root.
func TestGatherRejectsOverlappingOwners(t *testing.T) {
	full := frame.XYWH(0, 0, goldenW, goldenH)
	src := goldenImages(0, 4)[1]
	top, bottom := full.Split(0)
	bottom.Y0-- // one scanline into top
	for _, tc := range []struct {
		name  string
		owns  [3]Ownership // rank r owns owns[r]
		ranks [2]int       // the ranks the error names
	}{
		{"senders", [3]Ownership{RectOwn{}, RectOwn{R: top}, RectOwn{R: bottom}}, [2]int{1, 2}},
		{"root and sender", [3]Ownership{RectOwn{R: top}, RectOwn{R: bottom}, RectOwn{}}, [2]int{0, 1}},
	} {
		owns := tc.owns
		err := mp.Run(3, testOpts(), func(c mp.Comm) error {
			if c.Rank() != 0 {
				_, err := c.Gather(0, gatherPart(owns[c.Rank()], src))
				return err
			}
			res := &Result{Full: full, Parts: []*frame.Image{src.Clone()}, Own: owns[0], Stats: new(stats.Rank)}
			img, err := GatherImage(c, 0, res)
			var oe *overlapError
			if img != nil || !errors.As(err, &oe) {
				return fmt.Errorf("gathered %v, err %v; want no image and an overlap error", img, err)
			}
			if ranks := [2]int{min(oe.a.rank, oe.b.rank), max(oe.a.rank, oe.b.rank)}; ranks != tc.ranks {
				return fmt.Errorf("%v: want ranks %v named", err, tc.ranks)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// The gather consumes the parts the schedule allocated: once
// GatherImage returns, on the root and on every other rank, each
// owner-merge part is blank with empty Bounds, its storage back in the
// pixel pool. A swap schedule's part — and a fold extra rank's — is the
// caller's subimage, and still holds its pixels.
func TestGatherConsumesScheduleParts(t *testing.T) {
	viewDir := [3]float64{0.3, -0.5, 0.81}
	for _, method := range Names() {
		owner := slices.Contains(ownerMethods, method)
		for _, p := range []int{3, 4} {
			label := fmt.Sprintf("%s P=%d", method, p)
			imgs := randImages(rand.New(rand.NewSource(int64(p))), p, 64, 48, 1)
			comp, dec, _ := methodWorld(t, method, testRoot(), p, 16)
			err := inProcess(p, func(c mp.Comm) error {
				img := imgs[c.Rank()].Clone()
				res, err := comp.Composite(c, dec, viewDir, img)
				if err != nil {
					return err
				}
				before := make([]*frame.Image, len(res.Parts))
				for i, part := range res.Parts {
					before[i] = part.Clone()
				}
				if _, err := GatherImage(c, 0, res); err != nil {
					return err
				}
				return checkConsumed(res, img, before, owner)
			})
			if err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
}

// checkConsumed reports a part of a gathered res that the gather kept
// though the schedule allocated it, or changed though it is the
// caller's subimage img; before holds the parts as the gather got them.
func checkConsumed(res *Result, img *frame.Image, before []*frame.Image, owner bool) error {
	full := res.Full
	stored := 0
	for i, part := range res.Parts {
		if (part == img) == owner {
			return fmt.Errorf("part %d: is the subimage %v, want %v", i, part == img, !owner)
		}
		if part == img {
			if part.Bounds() != before[i].Bounds() || part.MaxAbsDiff(before[i], full) != 0 {
				return fmt.Errorf("part %d, the caller's subimage, changed in the gather", i)
			}
			continue
		}
		stored += before[i].Bounds().Area()
		if !part.Bounds().Empty() || part.CountNonBlank(full) != 0 {
			return fmt.Errorf("part %d still holds %v after the gather", i, part.Bounds())
		}
	}
	if owner && stored == 0 {
		return fmt.Errorf("no part held pixels: the release tests nothing")
	}
	return nil
}

// A gather that fails still consumes the schedule's parts: here rank 1's
// result carries no ownership the gather can ship, so it fails before
// sending, and the root then receives a malformed message, as in
// TestGatherRejectsMalformedParts. Both ranks' dfb parts come back
// blank.
func TestFailedGatherConsumesScheduleParts(t *testing.T) {
	imgs := randImages(rand.New(rand.NewSource(5)), 2, 64, 48, 1)
	comp, dec, _ := methodWorld(t, "dfb", testRoot(), 2, 16)
	err := inProcess(2, func(c mp.Comm) error {
		img := imgs[c.Rank()].Clone()
		res, err := comp.Composite(c, dec, [3]float64{0, 0, 1}, img)
		if err != nil {
			return err
		}
		before := make([]*frame.Image, len(res.Parts))
		for i, part := range res.Parts {
			before[i] = part.Clone()
		}
		if c.Rank() == 1 {
			res.Own = nil
		}
		if _, err := GatherImage(c, 0, res); err == nil {
			return fmt.Errorf("rank %d: the gather did not fail", c.Rank())
		}
		if c.Rank() == 1 {
			if _, err := c.Gather(0, []byte{9}); err != nil {
				return err
			}
		}
		if err := checkConsumed(res, img, before, true); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatherOwnerships returns one ownership of each kind over full, shaped
// like the ones the schedules produce.
func gatherOwnerships(full frame.Rect) []Ownership {
	evens, _ := splitInterleavedInto([]Interval{{0, full.Area()}}, full.Dx(), nil, nil)
	top, _ := full.Split(0) // the horizontal halves
	return []Ownership{
		RectOwn{R: top},
		RectSetOwn{Rs: []frame.Rect{frame.XYWH(0, 0, 16, 16), frame.XYWH(32, 0, 16, 16), frame.XYWH(16, 16, 16, 16)}},
		IntervalOwn{W: full.Dx(), Iv: evens},
	}
}
