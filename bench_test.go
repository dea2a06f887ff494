// Package revnic_test is the benchmark harness: one testing.B target
// per table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design choices DESIGN.md calls out (path-selection strategy,
// polling-loop killing, symbolic vs concrete hardware).
//
// Each benchmark regenerates its experiment from scratch inside the
// timing loop where that is the interesting cost (exploration,
// synthesis), or reuses the shared reverse-engineering context where
// the experiment itself is the product (figures/tables), reporting
// the relevant headline metric via b.ReportMetric.
package revnic_test

import (
	"flag"
	"runtime"
	"sync"
	"testing"

	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/experiments"
	"revnic/internal/expr"
	"revnic/internal/symexec"
	"revnic/internal/synth"
	"revnic/internal/template"
)

// workersFlag sets the exploration worker count for every benchmark
// that runs the reverse-engineering pipeline, e.g.
//
//	go test -bench 'Table2|Fig8' -workers=1
//	go test -bench 'Table2|Fig8' -workers=4
//
// Results (coverage %, trace equality, synthesized code) are
// identical for any value; only wall time changes.
var workersFlag = flag.Int("workers", runtime.GOMAXPROCS(0), "exploration worker goroutines for pipeline benchmarks")

var (
	ctxOnce sync.Once
	ctx     *experiments.Context
	ctxErr  error
)

func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	ctxOnce.Do(func() { ctx, ctxErr = experiments.NewContext(experiments.ContextConfig{Workers: *workersFlag}) })
	if ctxErr != nil {
		b.Fatal(ctxErr)
	}
	return ctx
}

// BenchmarkTable1 regenerates the driver-characteristics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 4 {
			b.Fatal("table1 rows")
		}
	}
}

// BenchmarkTable2 runs the full functionality-equivalence experiment
// (original vs synthesized I/O traces for all four drivers).
func BenchmarkTable2(b *testing.B) {
	c := sharedCtx(b)
	b.ResetTimer()
	equal := 0
	for i := 0; i < b.N; i++ {
		reps, err := c.Table2()
		if err != nil {
			b.Fatal(err)
		}
		equal = 0
		for _, r := range reps {
			if r.IOTraceEqual {
				equal++
			}
		}
	}
	b.ReportMetric(float64(equal), "drivers-trace-equal")
}

// BenchmarkTable3 regenerates the template-effort table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3()) != 4 {
			b.Fatal("table3")
		}
	}
}

// BenchmarkTable4 regenerates the developer-effort table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table4()) != 4 {
			b.Fatal("table4")
		}
	}
}

func benchFigure(b *testing.B, run func() error) {
	c := sharedCtx(b)
	_ = c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates RTL8139 throughput on x86.
func BenchmarkFig2(b *testing.B) {
	c := sharedCtx(b)
	benchFigure(b, func() error { _, err := c.Fig2(); return err })
}

// BenchmarkFig3 regenerates RTL8139 CPU utilization on x86.
func BenchmarkFig3(b *testing.B) {
	c := sharedCtx(b)
	benchFigure(b, func() error { _, err := c.Fig3(); return err })
}

// BenchmarkFig4 regenerates 91C111 throughput on the FPGA.
func BenchmarkFig4(b *testing.B) {
	c := sharedCtx(b)
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := c.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.Series[0].Points) - 1
		orig := f.Series[0].Points[last].ThroughputMbps
		port := f.Series[1].Points[last].ThroughputMbps
		gap = 100 * (orig - port) / orig
	}
	b.ReportMetric(gap, "fpga-gap-%")
}

// BenchmarkFig5 regenerates the in-driver CPU fraction.
func BenchmarkFig5(b *testing.B) {
	c := sharedCtx(b)
	benchFigure(b, func() error { _, err := c.Fig5(); return err })
}

// BenchmarkFig6 regenerates RTL8029 throughput on QEMU.
func BenchmarkFig6(b *testing.B) {
	c := sharedCtx(b)
	benchFigure(b, func() error { _, err := c.Fig6(); return err })
}

// BenchmarkFig7 regenerates PCNet throughput on VMware.
func BenchmarkFig7(b *testing.B) {
	c := sharedCtx(b)
	benchFigure(b, func() error { _, err := c.Fig7(); return err })
}

// BenchmarkFig8 measures the full exploration run that produces the
// coverage-vs-time curve for one driver (the expensive, interesting
// cost of the whole system).
func BenchmarkFig8(b *testing.B) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		b.Fatal(err)
	}
	var cov float64
	for i := 0; i < b.N; i++ {
		rev, err := core.ReverseEngineer(info.Program, core.Options{
			Shell: core.ShellConfig(info), DriverName: info.Name,
			Engine: symexec.Config{Seed: int64(i), Workers: *workersFlag},
		})
		if err != nil {
			b.Fatal(err)
		}
		cov = 100 * rev.Coverage()
	}
	b.ReportMetric(cov, "coverage-%")
}

// BenchmarkFig9 regenerates the function-classification breakdown.
func BenchmarkFig9(b *testing.B) {
	c := sharedCtx(b)
	var auto float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := c.Fig9()
		total, autoN := 0, 0
		for _, r := range rows {
			total += r.TotalFuncs
			autoN += r.Automated
		}
		auto = 100 * float64(autoN) / float64(total)
	}
	b.ReportMetric(auto, "auto-funcs-%")
}

// BenchmarkSynthesis isolates trace-to-C code generation (the
// "100 MB/minute" synthesizer stage of §5.4).
func BenchmarkSynthesis(b *testing.B) {
	c := sharedCtx(b)
	rev := c.Get("RTL8139")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := synth.Generate(rev.Graph, synth.Options{DriverName: "RTL8139"})
		if len(out.Code) == 0 {
			b.Fatal("empty code")
		}
	}
}

// BenchmarkCFGBuild isolates trace merging and CFG reconstruction.
func BenchmarkCFGBuild(b *testing.B) {
	c := sharedCtx(b)
	rev := c.Get("RTL8139")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := cfg.Build(rev.Exploration.Collector)
		if len(g.Funcs) == 0 {
			b.Fatal("no functions")
		}
	}
}

// BenchmarkTemplateInstantiation isolates template filling for all
// four target OSes.
func BenchmarkTemplateInstantiation(b *testing.B) {
	c := sharedCtx(b)
	rev := c.Get("RTL8029")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, osk := range template.AllOS {
			if s := rev.InstantiateTemplate(osk); len(s) == 0 {
				b.Fatal("empty template")
			}
		}
	}
}

// --- parallel pipeline ablation ---------------------------------------

// benchExploreWorkers reverse engineers RTL8029 end to end with a
// fixed worker count; compare BenchmarkExploreSerial with
// BenchmarkExploreParallel to see what the fork-join mode buys on
// this machine. The reported coverage metric must be identical for
// both (the parallel mode is bit-deterministic in the worker count).
// Each run explores in a fresh expression arena, as a revnicd job or
// a re-serial benchmark op does, so node allocation is measured too.
func benchExploreWorkers(b *testing.B, workers int) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		b.Fatal(err)
	}
	var cov float64
	for i := 0; i < b.N; i++ {
		rev, err := core.ReverseEngineer(info.Program, core.Options{
			Shell: core.ShellConfig(info), DriverName: info.Name,
			Engine: symexec.Config{Seed: 42, Workers: workers, Arena: expr.NewArena()},
		})
		if err != nil {
			b.Fatal(err)
		}
		cov = 100 * rev.Coverage()
	}
	b.ReportMetric(cov, "coverage-%")
}

// BenchmarkExploreSerial runs the exploration shards on one goroutine.
func BenchmarkExploreSerial(b *testing.B) { benchExploreWorkers(b, 1) }

// BenchmarkExploreParallel runs the shards on one goroutine per CPU.
func BenchmarkExploreParallel(b *testing.B) { benchExploreWorkers(b, runtime.GOMAXPROCS(0)) }

// benchContextWorkers rebuilds the full four-driver context (the
// expensive shared setup of every experiment) with a fixed pool size.
func benchContextWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewContext(experiments.ContextConfig{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextSerial reverse engineers the four drivers one at a
// time on a single-worker pool.
func BenchmarkContextSerial(b *testing.B) { benchContextWorkers(b, 1) }

// BenchmarkContextParallel reverse engineers the four drivers on one
// worker per CPU.
func BenchmarkContextParallel(b *testing.B) { benchContextWorkers(b, runtime.GOMAXPROCS(0)) }

// --- ablations ---------------------------------------------------------

func explorationRun(b *testing.B, cfgTweak func(*symexec.Config)) *core.Reversed {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		b.Fatal(err)
	}
	ecfg := symexec.Config{Seed: 3}
	cfgTweak(&ecfg)
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell: core.ShellConfig(info), DriverName: info.Name, Engine: ecfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rev
}

// explorationCoverage runs one ablation exploration and reports the
// headline metrics every ablation benchmark shares: final coverage
// and the solver traffic it took to get there.
func explorationCoverage(b *testing.B, cfgTweak func(*symexec.Config)) float64 {
	rev := explorationRun(b, cfgTweak)
	e := rev.Exploration
	b.ReportMetric(float64(e.SolverQueries), "solver-queries")
	b.ReportMetric(float64(e.SolverCacheHits+e.SolverModelHits), "solver-cache-hits")
	return 100 * rev.Coverage()
}

// BenchmarkAblationSearchCoverage / DFS / BFS compare the §3.2
// path-selection searchers through the pluggable Searcher interface.
func BenchmarkAblationSearchCoverage(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = explorationCoverage(b, func(c *symexec.Config) { c.Searcher = symexec.NewCoverageGuided })
	}
	b.ReportMetric(cov, "coverage-%")
}

// BenchmarkAblationSearchDFS explores depth-first.
func BenchmarkAblationSearchDFS(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = explorationCoverage(b, func(c *symexec.Config) { c.Searcher = symexec.NewDFS })
	}
	b.ReportMetric(cov, "coverage-%")
}

// BenchmarkAblationSearchBFS explores breadth-first.
func BenchmarkAblationSearchBFS(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = explorationCoverage(b, func(c *symexec.Config) { c.Searcher = symexec.NewBFS })
	}
	b.ReportMetric(cov, "coverage-%")
}

// BenchmarkAblationLoopKill disables the polling-loop killer; the
// coverage metric shows what the heuristic buys under the same
// budgets.
func BenchmarkAblationLoopKill(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = explorationCoverage(b, func(c *symexec.Config) { c.DisableLoopKill = true })
	}
	b.ReportMetric(cov, "coverage-%")
}

// BenchmarkAblationConcreteHW replaces symbolic hardware with a
// passive concrete device (§3.1's claim: symbolic hardware exercises
// branches a real device cannot).
func BenchmarkAblationConcreteHW(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = explorationCoverage(b, func(c *symexec.Config) { c.ConcreteHardware = true })
	}
	b.ReportMetric(cov, "coverage-%")
}
