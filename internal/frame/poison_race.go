//go:build race

package frame

// poisonReleased makes releasePixels overwrite storage with NaN pixels
// before pooling it, so every test run under the race detector is also
// a use-after-release detector: an image read after its owner released
// it fails its byte-identity check.
//
// checkFit makes Fit panic on a non-blank pixel outside its rectangle,
// so every race run is also a stale-margin detector: CopyFrom and Grow
// trust that storage outside Bounds is blank.
//
// checkStore makes the store kernels (StoreRow, StoreImage) panic on a
// non-blank destination pixel: a store equals the over operator only
// over blank storage.
const (
	poisonReleased = true
	checkFit       = true
	checkStore     = true
)
