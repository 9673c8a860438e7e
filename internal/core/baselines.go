package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
)

// Pipeline is the parallel-pipeline baseline of §2 (Lee et al.), adapted
// to volume rendering's non-commutative over operator: ranks are arranged
// on a ring in depth order; the partial for the strip owned by ring
// position i is created at position i+1 and travels the ring once,
// accumulating every rank's contribution. Because a cyclic traversal
// visits the front segment (positions 0..i) and back segment (positions
// i+1..P-1) as two runs, the message carries two partials — one per
// segment — and the owner combines them with a single over at the end.
type Pipeline struct{}

// Name implements Compositor.
func (Pipeline) Name() string { return "Pipeline" }

// pipePartial is one strip's in-flight state.
type pipePartial struct {
	front *frame.Image // accumulated front-segment contributions
	back  *frame.Image // accumulated back-segment contributions
}

// Composite implements Compositor.
func (Pipeline) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	st := &stats.Rank{RankID: c.Rank(), Method: "Pipeline"}
	var timer stats.Timer
	ar := getArena()
	defer putArena(ar)
	p := c.Size()
	full := img.Full()

	order := dec.DepthOrder(viewDir)
	posOf := make([]int, p)
	for i, r := range order {
		posOf[r] = i
	}
	me := posOf[c.Rank()]     // my ring position (0 = frontmost)
	next := order[(me+1)%p]   // rank at the next ring position
	prev := order[(me-1+p)%p] // rank at the previous ring position
	w, h := full.Dx(), full.Dy()

	if p == 1 {
		return &Result{Image: img, Own: RectOwn{R: full}, Stats: st}, nil
	}

	var result *frame.Image
	var myStrip frame.Rect
	for s := 0; s < p; s++ {
		stg := st.StageAt(s + 1)
		c.SetStage(stg.Label)
		ownerPos := (me - s - 1 + p) % p
		strip := stripRect(full, ownerPos, p)
		pp := pipePartial{
			front: frame.NewImage(w, h),
			back:  frame.NewImage(w, h),
		}
		if s > 0 {
			// Receive the in-flight partial for this strip.
			recv, err := c.Recv(prev, tagPipe)
			if err != nil {
				return nil, fmt.Errorf("pipeline: step %d: %w", s, err)
			}
			timer.Start()
			if err := unpackPartialPair(recv, pp.front, pp.back); err != nil {
				return nil, fmt.Errorf("pipeline: step %d: %w", s, err)
			}
			timer.Stop()
			stg.MsgsRecv++
			stg.BytesRecv += len(recv)
		}
		// Add our own contribution: we are in the front segment iff our
		// position does not exceed the owner's.
		timer.Start()
		br, _ := img.BoundingRect(strip)
		if !br.Empty() {
			dst := pp.back
			if me <= ownerPos {
				dst = pp.front
			}
			stg.Composited += dst.CompositeImage(img, br, false)
		}
		timer.Stop()

		if ownerPos == me {
			// Final step: combine segments. Everything in front came
			// from positions 0..me, everything behind from me+1..P-1.
			timer.Start()
			result = pp.back
			fb := pp.front.Bounds()
			if !fb.Empty() {
				result.CompositeImage(pp.front, fb, true)
			}
			timer.Stop()
			myStrip = strip
			continue
		}
		payload := packPartialPair(pp.front, pp.back, ar.codec.Grab(2*frame.RectBytes))
		if err := c.Send(next, tagPipe, payload); err != nil {
			return nil, fmt.Errorf("pipeline: step %d: %w", s, err)
		}
		ar.codec.Retain(payload)
		stg.MsgsSent++
		stg.BytesSent += len(payload)
	}
	st.CompWall = timer.Total()
	return &Result{Image: result, Own: RectOwn{R: myStrip}, Stats: st}, nil
}

// packPartialPair serializes two sparse partial images as rect+raw
// regions, appending to buf.
func packPartialPair(front, back *frame.Image, buf []byte) []byte {
	var unused stats.Stage
	for _, im := range []*frame.Image{front, back} {
		br, _ := im.BoundingRect(im.Full())
		buf = rectRaw{}.encode(buf, nil, im, region{rect: im.Full()}, br, &unused)
	}
	return buf
}

// unpackPartialPair parses the two partials into the provided (blank)
// images; compositing onto blank pixels stores the received ones.
func unpackPartialPair(buf []byte, front, back *frame.Image) error {
	var unused stats.Stage
	for _, im := range []*frame.Image{front, back} {
		var err error
		if _, buf, err = (rectRaw{}).decode(im, region{rect: im.Full()}, buf, false, &unused); err != nil {
			return fmt.Errorf("core: partial pair: %w", err)
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes in partial pair", len(buf))
	}
	return nil
}

// BinaryTree is the compression-based binary-tree baseline of §2 (Ahrens
// and Painter): a tree reduction in which senders ship their entire
// current image as value-run-length-encoded runs and receivers merge run
// streams directly in the encoded domain. After log P stages rank 0 holds
// the full image. The value encoding is the one §3.3 argues degenerates
// for float-valued volume pixels — measured by the RLE-kind ablation.
type BinaryTree struct{}

// Name implements Compositor.
func (BinaryTree) Name() string { return "BinaryTree" }

// Composite implements Compositor.
func (BinaryTree) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	st := &stats.Rank{RankID: c.Rank(), Method: "BinaryTree"}
	var timer stats.Timer
	ar := getArena()
	defer putArena(ar)
	full := img.Full()
	me := c.Rank()

	timer.Start()
	runs := encodeImageRuns(img)
	timer.Stop()

	for stage := 1; stage <= dec.Stages(); stage++ {
		if me&((1<<(stage-1))-1) != 0 {
			break // this rank already sent its data away
		}
		s := st.StageAt(stage)
		c.SetStage(s.Label)
		partner := dec.Partner(me, stage)
		if me&(1<<(stage-1)) != 0 {
			payload := rle.PackRuns(runs, ar.codec.Grab(4+len(runs)*rle.RunBytes))
			if err := c.Send(partner, tagTree, payload); err != nil {
				return nil, fmt.Errorf("bintree: stage %d: %w", stage, err)
			}
			s.MsgsSent, s.BytesSent = 1, len(payload)
			s.Codes = len(runs)
			runs = nil
			break
		}
		recv, err := c.Recv(partner, tagTree)
		if err != nil {
			return nil, fmt.Errorf("bintree: stage %d: %w", stage, err)
		}
		timer.Start()
		theirs, rest, err := rle.UnpackRuns(recv)
		if err != nil {
			return nil, fmt.Errorf("bintree: stage %d: %w", stage, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("bintree: stage %d: trailing bytes", stage)
		}
		var merged []rle.Run
		if dec.RankInFront(partner, stage, viewDir) {
			merged, err = rle.CompositeRuns(theirs, runs)
		} else {
			merged, err = rle.CompositeRuns(runs, theirs)
		}
		timer.Stop()
		if err != nil {
			return nil, fmt.Errorf("bintree: stage %d: %w", stage, err)
		}
		s.MsgsRecv, s.BytesRecv = 1, len(recv)
		s.Codes = len(theirs)
		s.RecvPixels = full.Area()
		for _, r := range theirs {
			if !r.Value.Blank() {
				s.Composited += int(r.Count)
			}
		}
		runs = merged
	}

	if me != 0 {
		st.CompWall = timer.Total()
		return &Result{Image: frame.NewImage(full.Dx(), full.Dy()), Own: RectOwn{}, Stats: st}, nil
	}
	timer.Start()
	out := frame.NewImage(full.Dx(), full.Dy())
	idx := 0
	w := full.Dx()
	for _, r := range runs {
		if !r.Value.Blank() {
			for k := 0; k < int(r.Count); k++ {
				out.Set((idx+k)%w, (idx+k)/w, r.Value)
			}
		}
		idx += int(r.Count)
	}
	timer.Stop()
	st.CompWall = timer.Total()
	return &Result{Image: out, Own: RectOwn{R: full}, Stats: st}, nil
}

// encodeImageRuns value-encodes the full frame row-major without
// materializing a dense pixel buffer.
func encodeImageRuns(img *frame.Image) []rle.Run {
	full := img.Full()
	var runs []rle.Run
	var cur rle.Run
	flush := func() {
		if cur.Count > 0 {
			runs = append(runs, cur)
		}
	}
	for y := full.Y0; y < full.Y1; y++ {
		for x := full.X0; x < full.X1; x++ {
			p := img.At(x, y)
			if cur.Count > 0 && cur.Value == p && cur.Count < 0xFFFF {
				cur.Count++
				continue
			}
			flush()
			cur = rle.Run{Value: p, Count: 1}
		}
	}
	flush()
	return runs
}
