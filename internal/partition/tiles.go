package partition

import (
	"fmt"

	"sortlast/internal/frame"
)

// Tiling is the image decomposition of the tile-routed compositors: the
// frame splits into a fixed grid of square tiles (edge tiles clipped to
// the frame). The grid depends only on the frame and the tile edge —
// never on the volume decomposition or the rank count — which is what
// frees the tile-routed methods from the power-of-two rank restriction:
// internal/core deals the tiles round-robin (tile i to rank i mod P), so
// any rank can own any tile, and a rank owning zero tiles (P > tile
// count) is valid.
type Tiling struct {
	Full frame.Rect
	Tile int // tile edge in pixels

	nx, ny int // tiles per row / column
}

// NewTiling builds the tile grid over full.
func NewTiling(full frame.Rect, tile int) (*Tiling, error) {
	if tile <= 0 {
		return nil, fmt.Errorf("partition: tile edge %d must be positive", tile)
	}
	if full.Empty() {
		return nil, fmt.Errorf("partition: tiling over empty frame %v", full)
	}
	return &Tiling{
		Full: full, Tile: tile,
		nx: (full.Dx() + tile - 1) / tile,
		ny: (full.Dy() + tile - 1) / tile,
	}, nil
}

// NumTiles returns the tile count.
func (t *Tiling) NumTiles() int { return t.nx * t.ny }

// Rect returns tile i's pixel rectangle, clipped to the frame. Tiles are
// indexed row-major over the grid.
func (t *Tiling) Rect(i int) frame.Rect {
	tx, ty := i%t.nx, i/t.nx
	r := frame.Rect{
		X0: t.Full.X0 + tx*t.Tile,
		Y0: t.Full.Y0 + ty*t.Tile,
		X1: t.Full.X0 + (tx+1)*t.Tile,
		Y1: t.Full.Y0 + (ty+1)*t.Tile,
	}
	return r.Intersect(t.Full)
}
