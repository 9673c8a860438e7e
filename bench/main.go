// Command bench is the repository's benchmark: four long closed-loop
// workloads, seven end-to-end metrics each, and a traced run that times
// every layer from outside. See README.md in this directory.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//	bench --seed N                                        all workloads, one after another
//	bench --traced                                        all workloads, traced
//	bench --selfcheck N                                   two sets of N runs each, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef is one line of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. Bound is the relative worsening that is still
// not a regression. The timing bounds are what the host this was sized
// on can repeat (README.md, "The host"), not what one would like to
// detect; the two memory metrics repeat to a fraction of a percent.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"frame_ms_p50", "ms", lower, 0.25},
	{"frame_ms_p90", "ms", lower, 0.25},
	{"frames_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_frame", "ms", lower, 0.25},
	{"alloc_kb_per_frame", "KiB", lower, 0.03},
	{"heap_live_mb", "MiB", lower, 0.05},
}

// perLayer are the traced run's metrics, named <module>.<what>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"volume.generate_ms", "ms", lower, 0},
		{"volume.macrocells_ms", "ms", lower, 0},
		{"harness.newplan_ms_p50", "ms", lower, 0},
		{"harness.unattributed_ms_p50", "ms", lower, 0},
		{"render.raycast_ms_p50", "ms", lower, 0},
		{"render.ns_per_ray", "ns", lower, 0},
		{"render.samples_per_frame", "count", lower, 0},
		{"render.skip_share", "ratio", higher, 0},
		{"render.rank_imbalance", "ratio", lower, 0},
		{"frame.bounding_rect_ns_px", "ns", lower, 0},
		{"frame.encode_region_ns_px", "ns", lower, 0},
		{"frame.composite_wire_ns_px", "ns", lower, 0},
		{"frame.copyfrom_us", "us", lower, 0},
		{"frame.append_gray_us", "us", lower, 0},
		{"rle.encode_rect_ns_px", "ns", lower, 0},
		{"rle.parse_wire_ns_code", "ns", lower, 0},
		{"rle.codes_per_frame", "count", lower, 0},
	}
	for _, pm := range probed {
		pre := pm.layer + "." + pm.method
		d = append(d,
			metricDef{pre + ".wall_ms_p50", "ms", lower, 0},
			metricDef{pre + ".wire_kb", "KiB", lower, 0},
			metricDef{pre + ".msgs", "count", lower, 0},
			metricDef{pre + ".mmax_kb", "KiB", lower, 0})
	}
	d = append(d, []metricDef{
		{"core.gather_ms_p50", "ms", lower, 0},
		{"core.composited_px_per_frame", "count", lower, 0},
		{"costmodel.bs.model_ms", "ms", lower, 0},
		{"costmodel.bsbrc.model_ms", "ms", lower, 0},
		{"costmodel.dfb.model_ms", "ms", lower, 0},
		{"mp.sendrecv_8b_us_p50", "us", lower, 0},
		{"mp.sendrecv_64k_us_p50", "us", lower, 0},
		{"mp.world_start_us", "us", lower, 0},
		{"mpnet.sendrecv_8b_us_p50", "us", lower, 0},
		{"mpnet.sendrecv_64k_us_p50", "us", lower, 0},
		{"mpnet.connect_ms", "ms", lower, 0},
		{"server.start_ms", "ms", lower, 0},
		{"server.queue_ms_p50", "ms", lower, 0},
		{"server.render_ms_p50", "ms", lower, 0},
		{"server.total_ms_p50", "ms", lower, 0},
		{"server.unnamed_ms_p50", "ms", lower, 0},
		{"server.direct_ms_p50", "ms", lower, 0},
		{"server.wire_kb_per_frame", "KiB", lower, 0},
		{"server.degraded_share", "ratio", lower, 0},
		{"server.world_restarts", "count", lower, 0},
		{"fleet.start_ms", "ms", lower, 0},
		{"fleet.hit_share", "ratio", higher, 0},
		{"fleet.hit_ms_p50", "ms", lower, 0},
		{"fleet.miss_overhead_ms_p50", "ms", lower, 0},
		{"fleet.hedge_share", "ratio", lower, 0},
		{"fleet.retry_share", "ratio", lower, 0},
		{"fleet.evictions", "count", lower, 0},
		{"fleet.replica_imbalance", "ratio", lower, 0},
		{"client.preview_ms_p50", "ms", lower, 0},
		{"trace.server_overhead_share", "ratio", lower, 0},
		{"bench.trace_overhead_share", "ratio", lower, 0},
	}...)
	for _, l := range budgetLayers {
		d = append(d, metricDef{"share." + l, "ratio", lower, 0})
	}
	return d
}

// budgetLayers are the modules a traced frame's time is split over;
// "bench" is what the spans leave unattributed.
var budgetLayers = []string{"harness", "mp", "render", "core", "tilecomp", "frame", "client", "fleet", "server", "bench"}

// frameDeadline is the latency limit of every workload: a frame slower
// than this counts as failed. It is a guard against hangs, not a
// service-level target — the host this was sized on stalls a 7 ms frame
// for 270 ms now and then, and one failed frame fails the run.
const frameDeadline = 5 * time.Second

// specs are the four workloads, in the order they run.
var specs = []spec{
	{
		name:    "render_orbit",
		why:     "one-shot library path: ray casting is most of the frame, plus per-frame plan and world start; compositing or serving changes must not move it",
		callers: 1, rate: 25, slice: 20, chunk: 100, samples: 3,
		base:  "head",
		build: func() workload { return &renderOrbit{} },
	},
	{
		name:    "compose_dense",
		why:     "standing 8-rank in-process world on a fog volume whose subimages fill their footprints: compute-bound compositing where a codec's CPU cost shows and bytes are free",
		callers: 1, rate: 60, slice: 50, chunk: 150, samples: 3,
		base:  "engine",
		build: func() workload { return &compose{dense: true} },
	},
	{
		name:    "compose_sparse_net",
		why:     "the same loop on sparse engine_high subimages with the 8 ranks on loopback TCP: the paper's regime, bytes and per-message start-up are paid on sockets",
		callers: 1, rate: 80, slice: 60, chunk: 180, samples: 3,
		base:  "engine",
		build: func() workload { return &compose{dense: false} },
	},
	{
		name:    "serve_mix",
		why:     "2 callers through client, fleet gateway and 2 replicas: 25% cache hits, 15% previews, 60% full misses; the only workload that exercises pool, routing, cache, queue, reply encode and sockets",
		callers: 2, rate: 40, slice: serveBlock, chunk: 100, samples: serveSamples,
		base:  "head",
		build: func() workload { return &serveMix{} },
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricValue and result are the last line of a run's standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupProbes is how many fresh processes time set-up in one run.
const setupProbes = 5

// probeSetup starts this binary once more to do nothing but set the
// workload up and serve its first frame, and times that process from
// start to exit.
func probeSetup(s spec, seed int64, seconds float64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-probe", "--workload", s.name,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// evenly returns n ≥ 2 indices spread over [lo, hi], ends included.
func evenly(lo, hi, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo)/(n-1)
	}
	return out
}

// warmUp serves the first pl.warm frames untimed.
func warmUp(w workload, s spec, pl runPlan) error {
	lat := make([]float64, pl.warm)
	if failed, err := runFrames(w, s, 0, pl.warm, nil, lat); failed > 0 {
		return fmt.Errorf("%s: warm-up: %w", s.name, err)
	}
	return nil
}

// runOne is one untraced run: set-up probes, set-up, correctness gate,
// warm-up, the measured phase, verification.
func runOne(s spec, seed int64, seconds float64, probes int) (*result, error) {
	pl := s.plan(seconds)
	var setups, twinMS []float64
	for i := 0; i < probes; i++ {
		twinMS = append(twinMS, hostTwin())
		t, err := probeSetup(s, seed, seconds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	w := s.build()
	defer w.close()
	t0 := time.Now()
	if err := w.setup(seed, pl); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	if probes == 0 {
		if err := w.frame(0, nil); err != nil {
			return nil, err
		}
		setups = []float64{time.Since(t0).Seconds()}
	}
	correct := true
	if err := w.gate(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL", err)
		correct = false
	}
	if err := warmUp(w, s, pl); err != nil {
		return nil, err
	}
	w.retain(evenly(pl.warm, pl.frames()-1, s.samples)...)
	ph := measure(w, s, pl, nil)
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "FAIL", ph.firstErr)
	}
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL", err)
		correct = false
	}

	fmt.Printf("%s seed %d: %d frames in %d chunks of %d after %d warm-up, %d callers, phase %.1f s, ok_share %.4f\n",
		s.name, seed, ph.frames, pl.chunks, pl.chunk, pl.warm, s.callers, ph.elapsed.Seconds(),
		1-float64(ph.failed)/float64(ph.frames))
	// One host factor per run: the median twin reading over set-up and
	// phase, against the reference. Frame-time medians ignore bursts, so
	// the yardstick's median does too.
	twinMS = append(twinMS, ph.twinMS...)
	host := median(twinMS) / twinRefMS
	n := float64(ph.frames)
	p50, p50s := chunkMedian(ph.p50MS)
	tail, tails := chunkMedian(ph.tailMS)
	fps, fpss := chunkMedian(ph.fps)
	fmt.Printf("  host factor %.4f (twin median %.2f ms over %d readings, spread %.3f; reference %.1f ms)\n",
		host, median(twinMS), len(twinMS), spread(twinMS), twinRefMS)
	fmt.Printf("  as the clock read them: setup %.4f s, frame p50 %.4f ms, p90 %.4f ms, %.4f frames/s, cpu %.4f ms/frame\n",
		median(setups), p50, tail, fps, ph.cpuMS/n)
	values := map[string][2]float64{ // value at reference host speed, spread across chunks or probes
		"setup_s":            {median(setups) / host, spread(setups)},
		"frame_ms_p50":       {p50 / host, p50s},
		"frame_ms_p90":       {tail / host, tails},
		"frames_per_s":       {fps * host, fpss},
		"cpu_ms_per_frame":   {ph.cpuMS / n / host},
		"alloc_kb_per_frame": {ph.allocKB / n},
		"heap_live_mb":       {ph.heapMB},
	}
	res := &result{Correct: correct && ph.failed == 0, Attempted: ph.frames, Failed: ph.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range endToEnd {
		v := values[d.Name]
		fmt.Printf("  %-20s %12.4f %-4s  %s.spread %.4f  bound %.2f\n", d.Name, v[0], d.Unit, d.Name, v[1], d.Bound)
		res.Metrics[d.Name] = metricValue{Value: v[0], Unit: d.Unit}
	}
	return res, nil
}

// runTraced is the separate traced run: a quarter of the frames,
// alternating untraced and traced chunks, then the layer probes on the
// workload's scene. Spans go to bench/out/<workload>.trace.json.
func runTraced(s spec, seed int64, seconds float64) (*result, error) {
	pl := s.plan(seconds / 4)
	w := s.build()
	defer w.close()
	if err := w.setup(seed, runPlan{warm: pl.warm, chunks: 2 * pl.chunks, chunk: pl.chunk}); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	correct := true
	if err := w.gate(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL", err)
		correct = false
	}
	if err := warmUp(w, s, pl); err != nil {
		return nil, err
	}
	rec := newRecorder()
	var plain, traced []float64
	lat := make([]float64, pl.chunk)
	failed, next := 0, pl.warm
	for c := 0; c < pl.chunks; c++ {
		for _, r := range []*recorder{nil, rec} {
			f, err := runFrames(w, s, next, pl.chunk, r, lat)
			if err != nil {
				fmt.Fprintln(os.Stderr, "FAIL", err)
			}
			failed += f
			next += pl.chunk
			if r == nil {
				plain = append(plain, median(lat))
			} else {
				traced = append(traced, median(lat))
			}
		}
	}
	r := make(results)
	share, unattributed := layerBudget(rec.spans)
	for _, l := range budgetLayers {
		r["share."+l] = share[l]
	}
	r["bench.trace_overhead_share"] = median(traced)/median(plain) - 1
	// What an untraced frame costs beyond everything the spans cover.
	r["harness.unattributed_ms_p50"] = median(plain) - median(traced) + median(unattributed)/1e6
	trace := "bench/out/" + s.name + ".trace.json"
	if err := writeTrace(trace, rec.spans); err != nil {
		return nil, err
	}

	sc, err := w.scene()
	if err != nil {
		return nil, err
	}
	w.close() // the probes want the machine to themselves
	if err := probeLayers(sc, s.base, max(5, min(30, int(seconds*1.5))), r); err != nil {
		return nil, err
	}
	if err := probeServer(seed, max(6, min(40, int(seconds*2))), r); err != nil {
		return nil, err
	}
	if err := probeFleet(seed, max(1, min(4, int(seconds/5)))*serveBlock, r); err != nil {
		return nil, err
	}

	frames := 2 * pl.chunks * pl.chunk
	fmt.Printf("%s seed %d traced: %d frames, %d spans in %s, untraced p50 %.3f ms, traced p50 %.3f ms\n",
		s.name, seed, frames, len(rec.spans), trace, median(plain), median(traced))
	res := &result{Correct: correct && failed == 0, Attempted: frames, Failed: failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range perLayer {
		v, ok := r[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: layer metric %s was not measured", s.name, d.Name)
		}
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// child runs this binary for one workload and parses its last line.
func child(s spec, seed int64, seconds float64, trace bool, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", s.name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", s.name, err)
	}
	return &res, nil
}

// runAll runs every workload in a fresh process, one after another.
func runAll(seed int64, seconds float64, trace bool) error {
	t0 := time.Now()
	ok := true
	for _, s := range specs {
		res, err := child(s, seed, seconds, trace, true)
		if err != nil {
			return err
		}
		ok = ok && res.Correct
	}
	fmt.Printf("all workloads: %.1f s wall\n", time.Since(t0).Seconds())
	if !ok {
		return fmt.Errorf("a workload failed verification")
	}
	return nil
}

// selfCheck measures the benchmark against itself the way the
// acceptance driver does: two sets of n runs per workload on the same
// code, each run with another seed, the sets interleaved. For every
// (metric, workload) it prints both medians, how much worse the second
// is than the first, each set's inter-quartile range as a share of its
// median, and the bound. It fails when a difference exceeds its bound
// or a spread exceeds half of it (set-up time is held to the difference
// only: its spread is what the median over fresh processes is for).
func selfCheck(n int, seed int64, seconds float64) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	bad := 0
	for k := 0; k < n; k++ {
		for set := range sets {
			for _, s := range specs {
				res, err := child(s, seed+int64(set*n+k), seconds, false, false)
				if err != nil { // a failed run is reported, and the rest still measured
					fmt.Fprintln(os.Stderr, "selfcheck:", err)
					bad++
					continue
				}
				for name, v := range res.Metrics {
					sets[set][key{s.name, name}] = append(sets[set][key{s.name, name}], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d/%d done\n", 'A'+set, k+1, n)
		}
	}
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, s := range specs {
		for _, d := range endToEnd {
			a, b := sets[0][key{s.name, d.Name}], sets[1][key{s.name, d.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == higher {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound/2) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.4f | %.4f | %.4f | %.2f | %s |\n",
				s.name, d.Name, ma, mb, worse, sa, sb, d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d failed runs or (metric, workload) pairs outside their bound", bad)
	}
	return nil
}

// manifest prints BENCHMARK.json from the tables above.
func manifest(seconds int) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: seconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, wl{s.name, s.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print its result as JSON on the last line")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of a measured phase on the host that sized the frame counts")
		trace        = flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics")
		traced       = flag.Bool("traced", false, "with no --workload: trace every workload")
		quick        = flag.Bool("quick", false, "smoke run: 2-second phases, one set-up probe")
		check        = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them")
		setupProbe   = flag.Bool("setup-probe", false, "internal: set up, serve one frame, exit")
		printJSON    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	// Two processors whatever the host has: the frame counts and every
	// recorded number assume it.
	runtime.GOMAXPROCS(2)
	probes := setupProbes
	if *quick {
		*seconds, probes = 2, 1
	}
	err := func() error {
		switch {
		case *printJSON:
			return manifest(defaultSeconds)
		case *check > 0:
			return selfCheck(*check, *seed, *seconds)
		case *workloadName == "":
			return runAll(*seed, *seconds, *traced || *trace == 1)
		}
		s, ok := findSpec(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		if *setupProbe {
			w := s.build()
			if err := w.setup(*seed, s.plan(*seconds)); err != nil {
				return err
			}
			if err := w.frame(0, nil); err != nil {
				return err
			}
			os.Exit(0) // the first frame is out; tearing down is not set-up
		}
		printProvenance(*seed, *seconds)
		t0 := time.Now()
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(s, *seed, *seconds)
		} else {
			res, err = runOne(s, *seed, *seconds, probes)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s: %.1f s wall\n", s.name, time.Since(t0).Seconds())
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d frames failed or an output did not verify", s.name, res.Failed, res.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// printProvenance stamps a run with what is needed to compare it with
// another: commit, toolchain, host and inputs.
func printProvenance(seed int64, seconds float64) {
	git := func(args ...string) string {
		out, err := exec.Command("git", args...).Output()
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(out))
	}
	sha := git("rev-parse", "HEAD")
	if sha == "" {
		sha = "unknown" // the acceptance checkout is not a git repository
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	p := map[string]any{
		"git_sha": sha, "git_dirty": git("status", "--porcelain") != "",
		"go": runtime.Version(), "host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel": strings.TrimSpace(string(kernel)), "seed": seed, "seconds": seconds,
		"started": time.Now().UTC().Format(time.RFC3339),
	}
	frames := map[string]int{}
	for _, s := range specs {
		pl := s.plan(seconds)
		frames[s.name] = pl.chunks * pl.chunk
	}
	p["frames"] = frames
	b, _ := json.Marshal(p) // a map of strings and numbers cannot fail to marshal
	fmt.Println("provenance", string(b))
}
