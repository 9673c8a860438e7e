//go:build race

package sortlast

// raceEnabled gates allocation-exactness assertions: under the race
// detector sync.Pool drops items at random, so pooled buffers are
// reallocated now and then.
const raceEnabled = true
