//go:build race

package mp

// raceEnabled marks race builds, which poison released buffers and whose
// sync.Pools drop items at random; see norace_test.go.
const raceEnabled = true
