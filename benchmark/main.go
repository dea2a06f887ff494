// Command revnicbench is revnic's benchmark: it drives the reverse
// engineering pipeline, the job service and the differential fuzzer
// from outside, through their exported functions, in one closed-loop
// workload per run, checks every output, and prints every metric by
// name with its unit. See README.md for the workloads and metrics.
//
//	go run . -workload re-serial -seed 1 -seconds 35 [-trace 1] [-repeat N]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. The exit code is non-zero if any output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revnic/internal/drivers"
)

// opResult is what one operation reports to the loop.
type opResult struct {
	// latency is the operation's measured time; for re-serial it
	// excludes the equivalence check, which is timed as its own span.
	latency time.Duration
	err     error
	driver  int // plan driver index
	fuzz    bool
	// firstCycle marks a fuzz op among the first one per driver of
	// the stream; their counters are the deterministic fuzz counters.
	firstCycle bool
	counters   map[string]float64
	rejected   bool // the service answered 429
	jobFailed  bool // the job finished in another status than succeeded
}

// workload is one prepared system under test.
type workload interface {
	// op runs operation i of the seeded stream; root is the span the
	// loop opened around it.
	op(i int, tr *tracer, root int) opResult
	close()
}

type workloadDef struct {
	clients int
	start   func(p *plan, dataDir string) (workload, error)
}

var workloads = map[string]workloadDef{
	"re-serial":  {clients: 1, start: startReSerial},
	"jobs-local": {clients: 2, start: startJobs},
	"fuzz":       {clients: 1, start: startFuzz},
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up system is the one measured.
const setupReps = 3

// outDir, under the working directory, holds the job journals of a
// run and the spans of a traced run.
const outDir = ".bench_build"

func main() { os.Exit(run()) }

// run parses the flags, runs the benchmark and returns the exit code.
func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed: driver order, target OS, emission style, engine and fuzz seeds, job mix")
		seconds = flag.Int("seconds", 35, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		repeat  = flag.Int("repeat", 0, "run the workload this many times, seeds seed..seed+N-1, one process each, and summarize")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "revnicbench: need -workload (%s), -seconds ≥ 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *repeat > 0 {
		return runRepeat(*repeat, *name, *seed, *seconds, *traced)
	}
	data := filepath.Join(outDir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(data, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		workload: *name, def: def, seed: *seed, corpus: drivers.Corpus(),
		setupReps: setupReps, window: time.Duration(*seconds) * time.Second,
		minOps: minSamplesFor(0.9), dataDir: dir,
	}
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg, filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed)))
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		return fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "revnicbench: %v\n", err)
	return 1
}

type runConfig struct {
	workload  string
	def       workloadDef
	seed      int64
	corpus    []*drivers.Info
	setupReps int
	// window is the timed window; it is extended until minOps ops
	// completed, and maxOps (when set) caps the ops.
	window         time.Duration
	minOps, maxOps int
	dataDir        string
}

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

// setUp prepares the workload cfg.setupReps times, keeping the last,
// and returns it with the median set-up time.
func setUp(cfg runConfig) (workload, float64, error) {
	p := newPlan(cfg.seed, cfg.corpus)
	var times []float64
	var w workload
	for r := 0; r < cfg.setupReps; r++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = cfg.def.start(p, cfg.dataDir); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	_, med, _ := quartiles(times)
	return w, med, nil
}

func runUntraced(cfg runConfig) (result, error) {
	w, setupS, err := setUp(cfg)
	if err != nil {
		return result{}, err
	}
	win := runWindow(w, cfg, cfg.window, cfg.minOps, nil)
	w.close()
	res := win.outcome()
	p50, p90, tailOK := win.latency()
	m := map[string]float64{
		"setup_s":          setupS,
		"latency_p50_ms":   p50,
		"latency_p90_ms":   p90,
		"throughput_per_s": float64(win.succeeded()) / win.wall.Seconds(),
		"cpu_ms_per_op":    ms(win.cpu) / float64(len(win.ops)),
		"peak_rss_mb":      peakRSSMB(),
		"coverage_pct":     win.counterMeans()["coverage_pct"],
	}
	res.Metrics = metricValues(endToEnd, m)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops (%d failed) in %.1fs; latency p50 %.1f ms, p90 %.1f ms over %d samples",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, win.wall.Seconds(), p50, p90, len(win.ops))
	if !tailOK {
		fmt.Fprintf(os.Stderr, " (fewer than %d beyond p90)", tailBeyond)
	}
	fmt.Fprintln(os.Stderr)
	return res, nil
}

// runTraced measures half the window untraced and half traced, on the
// same op stream, and reports the per-layer metrics of the traced half
// with the difference between the two as the tracing overhead.
func runTraced(cfg runConfig, spanPath string) (result, error) {
	w, _, err := setUp(cfg)
	if err != nil {
		return result{}, err
	}
	half := cfg.window / 2
	minOps := max(cfg.minOps/2, 1)
	plain := runWindow(w, cfg, half, minOps, nil)
	tr := newTracer()
	win := runWindow(w, cfg, half, minOps, tr)
	w.close()

	spans := tr.finished()
	lts := layerTimes(spans)
	printLayerTable(os.Stderr, cfg.workload, lts, len(win.ops))
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(spanPath, spans); err != nil {
		return result{}, err
	}
	m := win.counterMeans()
	for _, name := range spanMetrics {
		m[name+"_ms"] = meanSelfMS(lts, name)
	}
	var schedules float64
	for _, r := range win.ops {
		if r.fuzz && r.err == nil {
			schedules += r.counters["difffuzz.schedules"]
		}
		if r.rejected {
			m["jobsvc.rejected"]++
		}
		if r.jobFailed {
			m["jobsvc.failed"]++
		}
	}
	m["difffuzz.schedules_per_s"] = schedules / win.wall.Seconds()
	m["go.alloc_mb_per_op"] = float64(win.gc[1].allocBytes-win.gc[0].allocBytes) / (1 << 20) / float64(len(win.ops))
	m["go.gc_cycles"] = float64(win.gc[1].gcCycles - win.gc[0].gcCycles)
	m["go.gc_pause_ms"] = ms(win.gc[1].gcPause - win.gc[0].gcPause)
	plainP50, _, _ := plain.latency()
	tracedP50, _, _ := win.latency()
	m["trace.overhead_pct"] = 100 * (tracedP50/plainP50 - 1)
	fmt.Fprintf(os.Stderr, "tracing overhead: p50 %.2f ms traced vs %.2f ms untraced (%+.1f%%); %d spans in %s\n",
		tracedP50, plainP50, m["trace.overhead_pct"], len(spans), spanPath)

	res := plain.outcome()
	traced := win.outcome()
	res.Correct = res.Correct && traced.Correct
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	res.Metrics = metricValues(perLayer, m)
	return res, nil
}

func metricValues(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// windowResult is one timed closed-loop window.
type windowResult struct {
	ops  []opResult // in op-index order
	wall time.Duration
	cpu  time.Duration
	gc   [2]goStats
}

// runWindow runs the workload's op stream from op 0 as a closed loop
// of cfg.def.clients clients: each sends its next op only when the
// previous one returned. It stops claiming ops once dur has passed and
// minOps ops completed, or at cfg.maxOps, or at a hard stop that keeps
// a slow system inside the run's time limit.
func runWindow(w workload, cfg runConfig, dur time.Duration, minOps int, tr *tracer) windowResult {
	var wr windowResult
	wr.gc[0] = readGoStats()
	cpu0 := cpuTime()
	start := time.Now()
	deadline, hardStop := start.Add(dur), start.Add(2*dur+30*time.Second)

	var next, done atomic.Int64
	var mu sync.Mutex
	byIndex := map[int]opResult{}
	var wg sync.WaitGroup
	for range cfg.def.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && done.Load() >= int64(minOps)) {
					return
				}
				i := int(next.Add(1) - 1)
				if cfg.maxOps > 0 && i >= cfg.maxOps {
					return
				}
				root := tr.begin("op", i, 0)
				r := w.op(i, tr, root)
				tr.end(root)
				mu.Lock()
				byIndex[i] = r
				mu.Unlock()
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	wr.wall = time.Since(start)
	wr.cpu = cpuTime() - cpu0
	wr.gc[1] = readGoStats()
	for i := 0; i < len(byIndex); i++ {
		wr.ops = append(wr.ops, byIndex[i])
	}
	return wr
}

func (wr windowResult) succeeded() int {
	n := 0
	for _, r := range wr.ops {
		if r.err == nil {
			n++
		}
	}
	return n
}

// outcome counts the window's ops and reports the first failures.
func (wr windowResult) outcome() result {
	res := result{Attempted: len(wr.ops)}
	var errs []error
	for i, r := range wr.ops {
		if r.err != nil {
			res.Failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Errorf("op %d: %w", i, r.err))
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "revnicbench: %d of %d ops failed:\n%v\n", res.Failed, res.Attempted, errors.Join(errs...))
	}
	return res
}

// latency returns the p50 and p90 op latency in milliseconds and
// whether enough samples lie beyond p90.
func (wr windowResult) latency() (p50, p90 float64, tailOK bool) {
	lat := make([]float64, len(wr.ops))
	for i, r := range wr.ops {
		lat[i] = ms(r.latency)
	}
	p50, _ = percentile(lat, 0.5)
	p90, tailOK = percentile(lat, 0.9)
	return p50, p90, tailOK
}

// counterMeans averages the exact layer counters so that they are the
// same on every run of one seed, whatever the window's length: for
// reverse-engineering ops, the first op on each driver, averaged over
// drivers; for fuzz ops, the first cycle of one op per driver.
func (wr windowResult) counterMeans() map[string]float64 {
	first := map[int]map[string]float64{} // by 2×driver, +1 for fuzz ops
	for _, r := range wr.ops {
		k := 2 * r.driver
		if r.fuzz {
			k++
		}
		if r.err == nil && r.counters != nil && (!r.fuzz || r.firstCycle) && first[k] == nil {
			first[k] = r.counters
		}
	}
	// Summing in driver order keeps the floating-point result the same
	// whatever order the seed visited the drivers in.
	sums := map[string]float64{}
	n := map[string]int{}
	for _, k := range slices.Sorted(maps.Keys(first)) {
		for name, v := range first[k] {
			sums[name] += v
			n[name]++
		}
	}
	for k := range sums {
		sums[k] /= float64(n[k])
	}
	if q := sums["solver.queries"]; q > 0 {
		sums["solver.hit_ratio"] = sums["solver.cache_hits"] / q
	}
	return sums
}
