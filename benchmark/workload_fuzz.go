package main

import (
	"fmt"
	"time"

	"revnic/internal/difffuzz"
)

const (
	// fuzzRoundBudget is the schedule budget of one fuzz-workload op.
	fuzzRoundBudget = 128
	// fuzzWorkers is the executor parallelism inside one fuzz round.
	fuzzWorkers = 2
)

// fuzzWorkload runs one differential-fuzzing round per operation,
// cycling through the corpus devices on harnesses built at setup.
type fuzzWorkload struct {
	p       *plan
	harness []*difffuzz.Harness // per plan driver
	// coverage is each harness's exploration coverage, in percent.
	coverage []float64
}

func startFuzz(p *plan, _ string) (workload, error) {
	w := &fuzzWorkload{p: p}
	for _, dp := range p.drivers {
		h, err := difffuzz.NewHarness(dp.info.Name, dp.target, "")
		if err != nil {
			return nil, fmt.Errorf("harness %s: %w", dp.info.Name, err)
		}
		w.harness = append(w.harness, h)
		w.coverage = append(w.coverage, 100*h.Rev.Coverage())
	}
	for d := range p.drivers {
		if r := w.round(d, p.fuzzSeed(-1-d), -1, nil, 0); r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return w, nil
}

func (w *fuzzWorkload) op(i int, tr *tracer, root int) opResult {
	r := w.round(w.p.driverOp(i), w.p.fuzzSeed(i), i, tr, root)
	r.firstCycle = i < len(w.p.drivers)
	return r
}

func (w *fuzzWorkload) round(d int, seed int64, op int, tr *tracer, root int) opResult {
	dp := w.p.drivers[d]
	r := opResult{driver: d, fuzz: true}
	start := time.Now()
	sp := tr.begin("difffuzz.fuzz", op, root)
	rep, err := difffuzz.Fuzz(w.harness[d], difffuzz.Config{
		Device: dp.info.Name, OS: dp.target, Seed: seed,
		Budget: fuzzRoundBudget, Workers: fuzzWorkers,
	})
	tr.end(sp)
	r.latency = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("fuzz %s: %w", dp.info.Name, err)
		return r
	}
	r.counters = fuzzCounters(rep.Schedules, rep.CoverageKeys, rep.CorpusSize, rep.Unexplored, len(rep.Divergences))
	r.counters["coverage_pct"] = w.coverage[d]
	r.err = fuzzFailure(dp.info.Name, fuzzRoundBudget, rep.Schedules, rep.Divergences, rep.Errors)
	return r
}

func (w *fuzzWorkload) close() {}

func fuzzCounters(schedules, keys, corpus, unexplored, divergences int) map[string]float64 {
	return map[string]float64{
		"difffuzz.schedules":     float64(schedules),
		"difffuzz.coverage_keys": float64(keys),
		"difffuzz.corpus":        float64(corpus),
		"difffuzz.unexplored":    float64(unexplored),
		"difffuzz.divergences":   float64(divergences),
	}
}

// fuzzFailure reports what makes a fuzz run wrong on the unmodified
// pipeline: any divergence, any harness error, or a run that stopped
// short of its budget.
func fuzzFailure(device string, budget, schedules int, divs []difffuzz.Divergence, errs []string) error {
	switch {
	case len(divs) > 0:
		return fmt.Errorf("fuzz %s: %d divergences, first: %s", device, len(divs), divs[0].String())
	case len(errs) > 0:
		return fmt.Errorf("fuzz %s: %d harness errors, first: %s", device, len(errs), errs[0])
	case schedules != budget:
		return fmt.Errorf("fuzz %s: ran %d of %d schedules", device, schedules, budget)
	}
	return nil
}
