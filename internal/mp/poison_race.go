//go:build race

package mp

// poisonReleased makes Release overwrite the buffer with 0xFF before
// pooling it, so every test run under the race detector is also a
// use-after-release detector: a consumer that still reads a released
// buffer decodes garbage and fails its byte-identity check.
const poisonReleased = true
