//go:build race

package frame

// checkFit makes Fit panic on a non-blank pixel outside its rectangle,
// so every race run is also a stale-margin detector: CopyFrom and Grow
// trust that storage outside Bounds is blank.
//
// checkStore makes the store kernels (StoreRow, StoreImage) panic on a
// non-blank destination pixel: a store equals the over operator only
// over blank storage.
//
// Released pixel storage is poisoned by internal/pool in race builds.
const (
	checkFit   = true
	checkStore = true
)
