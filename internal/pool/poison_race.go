//go:build race

package pool

// poisonReleased makes Put overwrite storage with the pool's poison
// before filing it, so every test run under the race detector is also a
// use-after-release detector: a consumer that still reads released
// pixels or bytes gets NaN pixels or 0xFF bytes and fails its
// byte-identity check.
const poisonReleased = true
