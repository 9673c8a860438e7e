package costmodel

import "time"

// Closed forms for the owner-routed compositors (internal/core's
// owner-merge schedule: ds, dfb), under the same first-order gloss as the paper's Eq. 1–8: the frame's
// non-blank density α and bounding-rectangle coverage β describe every
// rank's subimage too, so the predictions are comparable inputs to the
// same argmin. Under that gloss each owner receives the same α·A(1-1/P)
// non-blank pixels binary swap delivers per rank — one round instead of
// log P — so the forms separate from BSBRC only in startup count
// (P-1 messages against log P stages) and per-message framing. The real
// single-round advantage (no stage lockstep, shorter waits) is not a
// T_comp/T_comm work term; it reaches the argmin through the autotune
// selector's measured EWMA factors, exactly as BSBRLC's interleave win
// does.

// Sparsity is the scalar frame description the closed forms consume:
// the frame area A, the non-blank fraction α, the bounding-rectangle
// fraction β, the total run-length code count over the frame, and the
// rank count.
type Sparsity struct {
	Area       float64
	Alpha      float64
	Beta       float64
	FrameCodes float64
	P          int
}

// Wire constants mirrored from internal/frame and internal/rle; kept as
// local numbers so the model stays dependency-free.
const (
	pixelBytes   = 16
	rectBytes    = 8
	rleCodeBytes = 2
	rlePackBytes = 8 // u32 total + u32 code count framing per pack
)

// DirectSendCost models the ds method.
//
// Computation: one O(A) bounding scan; the encoder scans the sender's
// bounding rectangle minus its own strip (≈ β·A·(P-1)/P); the owner
// composites the non-blank content of the P-1 received regions,
// ≈ α·A·(P-1)/P — the binary-swap delivery total, arriving in one round.
// Communication: P-1 received messages, each with a rectangle header and
// RLE pack framing; strips hold whole scanlines, so splitting a sender's
// rectangle across strips adds no codes and the owner's share of the
// frame's code count is (P-1)/P of it.
func (p Params) DirectSendCost(f Sparsity) Cost {
	alpha, beta, pf := clampSparsity(f)
	msgs := pf - 1
	sumOthers := f.Area * msgs / pf // = A(1-1/P), binary swap's sumHalves
	comp := scale(p.Tbound, f.Area) +
		scale(p.Tencode, beta*sumOthers) +
		scale(p.To, alpha*sumOthers)
	comm := scale(p.Ts, msgs) + scale(p.Tc,
		pixelBytes*alpha*sumOthers+
			rleCodeBytes*f.FrameCodes*msgs/pf+
			(rectBytes+rlePackBytes)*msgs)
	return Cost{Comp: comp, Comm: comm}
}

// TileRoutedCost models the dfb method with the given tile edge.
//
// The scans and delivered pixels match ds, but the framing differs:
// splitting scanlines at vertical tile boundaries adds about one code
// pair per occupied row segment (β·A/tile of them), each non-empty tile
// (≈ β·A/tile² per sender) costs an entry header plus RLE pack framing,
// and each of the P-1 batch messages carries a 4-byte count.
func (p Params) TileRoutedCost(f Sparsity, tile int) Cost {
	if tile <= 0 {
		return Cost{}
	}
	alpha, beta, pf := clampSparsity(f)
	msgs := pf - 1
	sumOthers := f.Area * msgs / pf
	t := float64(tile)
	tileCodes := f.FrameCodes + 2*beta*f.Area/t
	tiles := beta * f.Area / (t * t)
	comp := scale(p.Tbound, f.Area) +
		scale(p.Tencode, beta*sumOthers) +
		scale(p.To, alpha*sumOthers)
	comm := scale(p.Ts, msgs) + scale(p.Tc,
		pixelBytes*alpha*sumOthers+
			rleCodeBytes*tileCodes*msgs/pf+
			(4+rectBytes+rlePackBytes)*tiles*msgs/pf+
			4*msgs)
	return Cost{Comp: comp, Comm: comm}
}

func clampSparsity(f Sparsity) (alpha, beta, pf float64) {
	alpha = clamp01(f.Alpha)
	beta = clamp01(f.Beta)
	if beta < alpha {
		beta = alpha // a rectangle can never be smaller than its content
	}
	pf = float64(f.P)
	if pf < 1 {
		pf = 1
	}
	return alpha, beta, pf
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func scale(per time.Duration, n float64) time.Duration {
	return time.Duration(float64(per) * n)
}
