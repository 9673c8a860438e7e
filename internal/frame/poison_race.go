//go:build race

package frame

// poisonReleased makes releasePixels overwrite storage with NaN pixels
// before pooling it, so every test run under the race detector is also
// a use-after-release detector: an image read after its owner released
// it fails its byte-identity check.
const poisonReleased = true
