package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sortlast/internal/frame"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// workload is one closed-loop frame source. All of its inputs derive
// from the seed given to setup; the program under test sees only those
// inputs.
type workload interface {
	// setup builds everything up to the point where frame 0 can be
	// served: dataset, plan, worlds, servers, connections.
	setup(seed int64, pl runPlan) error
	// frame serves frame i of the seeded sequence and returns when the
	// caller holds the finished image. A nil recorder runs the production
	// path; otherwise the layer calls are wrapped in spans.
	frame(i int, rec *recorder) error
	// retain names the frame indices whose outputs verify will check.
	retain(idx ...int)
	// gate is the correctness gate that runs before anything is timed.
	gate() error
	// verify checks the retained outputs after the measured phase.
	verify() error
	// scene is the geometry the per-layer probes run on.
	scene() (scene, error)
	// close stops worlds, servers and connections; a second call is a
	// no-op.
	close()
}

// scene is what the layer probes need to exercise a layer the way the
// workload does.
type scene struct {
	vol        *volume.Volume
	tf         *transfer.Func
	size, p    int
	rotX, rotY float64
	net        bool // compositing ranks talk over loopback TCP
}

// spec fixes a workload's measurement plan. Frame counts are fixed per
// second of --seconds (not open-ended timing), so every run of a seed
// executes the identical sequence; rate is sized so the measured phase
// lasts about --seconds on a 2-core host at the commit that defined the
// benchmark. If a later change shortens a phase by a quarter, a
// benchmark change rescales rate — a change that claims a gain may not.
type spec struct {
	name, why string
	callers   int     // closed-loop callers
	rate      float64 // measured frames per second of --seconds
	slice     int     // frames between two readings of the host's speed, ≈ 0.7 s
	chunk     int     // frames per chunk, a multiple of slice; ≥ 100 keeps 10 samples above p90
	samples   int     // outputs verified after the phase
	base      string  // built-in generator of the scene's dimensions
	build     func() workload
}

// runPlan is a measured run's shape: warm-up frames, then chunks
// consecutive chunks of chunk frames each, every chunk cut into slices.
type runPlan struct{ warm, chunks, chunk, slice int }

// frames is the number of frames the run serves, warm-up included.
func (p runPlan) frames() int { return p.warm + p.chunks*p.chunk }

// plan turns --seconds into a runPlan: as many nominal-size chunks as
// fit, between 3 and 8, resized to use the whole budget in whole
// slices. A short smoke run therefore gets 3 one-slice chunks.
func (s spec) plan(seconds float64) runPlan {
	total := s.rate * seconds
	chunks := int(math.Round(total / float64(s.chunk)))
	chunks = max(3, min(8, chunks))
	chunk := max(1, int(total)/chunks/s.slice) * s.slice
	// Warm-up: at least 5 % of the measured count, in whole slices so
	// the measured chunks start on a schedule boundary.
	warm := (chunks*chunk/20/s.slice + 1) * s.slice
	return runPlan{warm: warm, chunks: chunks, chunk: chunk, slice: s.slice}
}

// sampleSet is the retained-output bookkeeping every workload embeds.
type sampleSet[T any] struct {
	mu   sync.Mutex
	want map[int]bool
	got  map[int]T
}

func (s *sampleSet[T]) retain(idx ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.want == nil {
		s.want, s.got = make(map[int]bool), make(map[int]T)
	}
	for _, i := range idx {
		s.want[i] = true
	}
}

// keep stores out if frame i was asked for. The lookup is a map read
// under an uncontended mutex — noise next to a millisecond frame.
func (s *sampleSet[T]) keep(i int, out T) {
	s.mu.Lock()
	if s.want[i] {
		s.got[i] = out
	}
	s.mu.Unlock()
}

// missing reports retained indices that never produced an output.
func (s *sampleSet[T]) missing() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.want {
		if _, ok := s.got[i]; !ok {
			return fmt.Errorf("frame %d was to be verified but produced no output", i)
		}
	}
	return nil
}

// checkImage fails unless got matches ref within the byte-identity
// tolerance the repository uses against its sequential compositor.
func checkImage(what string, got, ref *frame.Image) error {
	if got == nil {
		return fmt.Errorf("%s: no image", what)
	}
	if got.Full() != ref.Full() {
		return fmt.Errorf("%s: frame %v, want %v", what, got.Full(), ref.Full())
	}
	if d := ref.MaxAbsDiff(got, ref.Full()); d > 1e-9 {
		return fmt.Errorf("%s: differs from the reference by %g", what, d)
	}
	return nil
}

// checkGray fails unless two 8-bit frames are byte-for-byte equal.
func checkGray(what string, got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d bytes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: byte %d is %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// phase is the outcome of one measured run of consecutive chunks.
type phase struct {
	// One value per chunk, as the clock read them: median and tail frame
	// time, and frames served per second.
	p50MS, tailMS, fps []float64

	frames   int
	failed   int
	firstErr error
	elapsed  time.Duration
	twinMS   []float64 // host twin readings taken between slices
	cpuMS    float64   // process user+sys CPU inside the slices
	allocKB  float64   // bytes allocated inside the slices
	heapMB   float64   // HeapAlloc after two GCs, everything still resident
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runFrames drives frames [first, first+n) through the workload with
// the spec's closed-loop callers, writing each frame's caller-observed
// time into lat (ms) and returning failures. A frame fails when it
// errors or misses the deadline.
func runFrames(w workload, s spec, first, n int, rec *recorder, lat []float64) (failed int, firstErr error) {
	var next atomic.Int64
	var fails atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < s.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				t0 := time.Now()
				err := w.frame(first+k, rec)
				d := time.Since(t0)
				lat[k] = float64(d) / 1e6
				if err == nil && d > frameDeadline {
					err = fmt.Errorf("frame %d took %v, deadline %v", first+k, d, frameDeadline)
				}
				if err != nil {
					fails.Add(1)
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return int(fails.Load()), firstErr
}

// allocBytes is the process's cumulative allocation, read without
// stopping the world.
func allocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// measure runs the plan's chunks starting at frame index pl.warm. Each
// chunk is served slice by slice with a reading of the host twin between
// slices, so the readings sample the host's speed across the whole
// phase; CPU time and allocation are taken inside the slices only and
// exclude the twin's own.
func measure(w workload, s spec, pl runPlan, rec *recorder) *phase {
	p := &phase{}
	lat := make([]float64, pl.chunk)
	runtime.GC()
	t0 := time.Now()
	p.twinMS = append(p.twinMS, hostTwin())
	for c := 0; c < pl.chunks; c++ {
		var elapsed time.Duration
		for off := 0; off < pl.chunk; off += pl.slice {
			a0, c0, s0 := allocBytes(), cpuTime(), time.Now()
			failed, err := runFrames(w, s, pl.warm+c*pl.chunk+off, pl.slice, rec, lat[off:off+pl.slice])
			elapsed += time.Since(s0)
			p.cpuMS += float64(cpuTime()-c0) / 1e6
			p.allocKB += float64(allocBytes()-a0) / 1024
			p.twinMS = append(p.twinMS, hostTwin())
			p.failed += failed
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
		p.frames += pl.chunk
		p.p50MS = append(p.p50MS, median(lat))
		p.tailMS = append(p.tailMS, percentile(lat, tailQ))
		p.fps = append(p.fps, float64(pl.chunk)/elapsed.Seconds())
	}
	p.elapsed = time.Since(t0)
	twin = twinState{} // the yardstick's buffers are not the program's heap
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / (1 << 20)
	return p
}
