package main

import (
	"fmt"
	"maps"
	"time"

	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/expr"
	"revnic/internal/symexec"
	"revnic/internal/synth"
	"revnic/internal/template"
)

// reSerial reverse engineers one corpus driver per operation, end to
// end, on one goroutine, then checks the synthesized driver against
// the original with the equivalence oracle.
type reSerial struct {
	p    *plan
	refs []reRef // per plan driver, from the warm-up
}

// reRef is a driver's warm-up output: every later operation on the
// driver must reproduce it exactly.
type reRef struct {
	code     string
	counters map[string]float64
}

func startReSerial(p *plan, _ string) (workload, error) {
	w := &reSerial{p: p, refs: make([]reRef, len(p.drivers))}
	for d := range p.drivers {
		r, code := w.reverse(d, -1, nil, 0)
		if r.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.drivers[d].info.Name, r.err)
		}
		w.refs[d] = reRef{code: code, counters: r.counters}
	}
	return w, nil
}

func (w *reSerial) op(i int, tr *tracer, root int) opResult {
	d := w.p.driverOp(i)
	r, code := w.reverse(d, i, tr, root)
	if r.err != nil {
		return r
	}
	ref := w.refs[d]
	switch {
	case code != ref.code:
		r.err = fmt.Errorf("%s: synthesized code differs from the warm-up's", w.p.drivers[d].info.Name)
	case !maps.Equal(r.counters, ref.counters):
		r.err = fmt.Errorf("%s: counters %v differ from the warm-up's %v", w.p.drivers[d].info.Name, r.counters, ref.counters)
	}
	return r
}

// reverse runs the pipeline for plan driver d: Explore, cfg.Build,
// synth.Generate, cfg.Static and template.Instantiate make up the
// operation's latency; the equivalence check runs after it, timed as
// its own span. It returns the instantiated driver source.
func (w *reSerial) reverse(d, op int, tr *tracer, root int) (opResult, string) {
	dp := w.p.drivers[d]
	info := dp.info
	r := opResult{driver: d}
	ar := expr.NewArena()
	start := time.Now()

	sp := tr.begin("symexec.explore", op, root)
	res, err := symexec.New(info.Program, symexec.Config{
		Shell: core.ShellConfig(info), Arena: ar, Seed: dp.engineSeed, Workers: 1,
	}).Explore()
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("%s: explore: %w", info.Name, err)
		return r, ""
	}
	sp = tr.begin("cfg.build", op, root)
	g := cfg.Build(res.Collector)
	tr.end(sp)
	sp = tr.begin("synth.generate", op, root)
	out := synth.Generate(g, synth.Options{DriverName: info.Name, Style: dp.style})
	tr.end(sp)
	sp = tr.begin("cfg.static", op, root)
	gt := cfg.Static(info.Program.Base, info.Program.Code)
	tr.end(sp)
	sp = tr.begin("template.instantiate", op, root)
	code := template.Instantiate(dp.target, info.Name, out)
	tr.end(sp)
	r.latency = time.Since(start)

	rev := &core.Reversed{Name: info.Name, Exploration: res, Graph: g, Synth: out, GroundTruth: gt}
	sp = tr.begin("core.equivalence", op, root)
	rep, err := core.CheckEquivalence(info, rev, dp.target)
	tr.end(sp)
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s: equivalence: %w", info.Name, err)
	case !rep.IOTraceEqual:
		r.err = fmt.Errorf("%s: I/O traces differ: %s", info.Name, rep.FirstDivergence)
	}
	r.counters = map[string]float64{
		"symexec.executed_blocks":  float64(res.ExecutedBlocks),
		"symexec.forks":            float64(res.ForkCount),
		"symexec.killed_loops":     float64(res.KilledLoops),
		"symexec.shards_effective": float64(res.ShardsEffective),
		"symexec.shard_collapses":  float64(res.ShardCollapses),
		"ir.translated_blocks":     float64(res.TranslatedBlocks),
		"expr.arena_nodes":         float64(ar.InternedNodes()),
		"solver.queries":           float64(res.SolverQueries),
		"solver.cache_hits":        float64(res.SolverCacheHits),
		"solver.model_hits":        float64(res.SolverModelHits),
		"cfg.blocks":               float64(len(g.Blocks)),
		"cfg.funcs":                float64(len(g.Funcs)),
		"synth.code_bytes":         float64(len(out.Code)),
		"coverage_pct":             100 * rev.Coverage(),
	}
	return r, code
}

func (w *reSerial) close() {}
