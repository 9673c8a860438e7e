package core

import (
	"fmt"
	"math/rand"
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

// gatherBoth gathers res the production way and the dense way and
// requires the two images to agree byte for byte; every test that goes
// through runImages therefore checks the sparse gather against the
// reference for its method, rank count and transport.
func gatherBoth(c mp.Comm, res *Result) (*frame.Image, error) {
	out, err := GatherImage(c, 0, res)
	if err != nil {
		return nil, err
	}
	ref, err := denseGather(c, 0, res)
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
