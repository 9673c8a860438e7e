package volume

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/dataset_digests.txt")

// digestCases are the volumes testdata/dataset_digests.txt pins: the
// three paper-sized datasets, two odd sizes whose z-slabs and cell slabs
// split unevenly, and a phantom with fewer slices than workers.
var digestCases = []struct {
	name string
	gen  func() *Volume
}{
	{DatasetEngine, func() *Volume { return mustGenerate(DatasetEngine) }},
	{DatasetHead, func() *Volume { return mustGenerate(DatasetHead) }},
	{DatasetCube, func() *Volume { return mustGenerate(DatasetCube) }},
	{"EngineBlock(33,47,21)", func() *Volume { return EngineBlock(33, 47, 21) }},
	{"HeadPhantom(37,41,19)", func() *Volume { return HeadPhantom(37, 41, 19) }},
	{"HeadPhantom(16,16,2)", func() *Volume { return HeadPhantom(16, 16, 2) }},
}

func mustGenerate(name string) *Volume {
	v, err := Generate(name)
	if err != nil {
		panic(err)
	}
	return v
}

// datasetDigests returns one line per digest case: the SHA-256 of the
// voxels and of the macro-cell grid's Min followed by its Max.
func datasetDigests() string {
	var b strings.Builder
	for _, c := range digestCases {
		v := c.gen()
		g := v.MacroCells()
		fmt.Fprintf(&b, "%s data=%x grid=%x\n", c.name,
			sha256.Sum256(v.Data), sha256.Sum256(append(append([]byte(nil), g.Min...), g.Max...)))
	}
	return b.String()
}

// TestDatasetDigests holds every dataset and its macro-cell grid
// byte-identical to the recorded digests at several worker counts: the
// generators split their passes over GOMAXPROCS z-slabs, and no split may
// change a byte. Downstream goldens (golden_transcript.txt, the served
// frames) all hash these volumes.
func TestDatasetDigests(t *testing.T) {
	path := filepath.Join("testdata", "dataset_digests.txt")
	if *updateDigests {
		if err := os.WriteFile(path, []byte(datasetDigests()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := datasetDigests(); got != string(want) {
			t.Errorf("GOMAXPROCS=%d: digests differ\ngot:\n%swant:\n%s", procs, got, want)
		}
	}
}

var (
	sinkVolume *Volume
	sinkGrid   *MacroGrid
)

// allocSlack covers headers, closures and size-class rounding.
const allocSlack = 8 << 10

// pinAllocs fails b unless one call of f makes at most allocs
// allocations of at most bytes plus allocSlack in total.
// testing.AllocsPerRun runs f at GOMAXPROCS 1, so the count holds no
// per-worker goroutine state: what is left is the output, any table the
// build keeps, and one closure per parallel pass.
func pinAllocs(b *testing.B, f func(), allocs float64, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := testing.AllocsPerRun(1, f) // a warm-up call and one counted call
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / 2; n > allocs || got > bytes+allocSlack {
		b.Fatalf("%v allocations, %d bytes per call; want ≤ %v, ≤ %d", n, got, allocs, bytes+allocSlack)
	}
}

func reportMS(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
}

// BenchmarkGenerate times the cold build of each paper dataset. A build
// may allocate the Volume and its voxels, plus engine's NX·NY column
// table.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name   string
		allocs float64
	}{{DatasetEngine, 5}, {DatasetHead, 4}, {DatasetCube, 2}} {
		b.Run(c.name, func(b *testing.B) {
			v := mustGenerate(c.name)
			pinAllocs(b, func() { sinkVolume = mustGenerate(c.name) }, c.allocs,
				uint64(len(v.Data)+v.NX*v.NY))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkVolume = mustGenerate(c.name)
			}
			reportMS(b)
		})
	}
}

// BenchmarkMacroCells times a fresh macro-cell grid over each paper
// dataset; a build allocates only the MacroGrid, Min, Max and the pass's
// closure.
func BenchmarkMacroCells(b *testing.B) {
	for _, name := range []string{DatasetEngine, DatasetHead, DatasetCube} {
		b.Run(name, func(b *testing.B) {
			v := mustGenerate(name)
			cells := v.MacroCells().cells()
			pinAllocs(b, func() { sinkGrid = buildMacroGrid(v) }, 4, uint64(2*cells))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGrid = buildMacroGrid(v)
			}
			reportMS(b)
		})
	}
}
