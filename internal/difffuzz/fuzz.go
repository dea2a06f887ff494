package difffuzz

import (
	"context"
	"fmt"
	"sync"

	"revnic/internal/synthdrv"
	"revnic/internal/template"
)

// Config parameterizes one differential fuzzing run.
type Config struct {
	// Device names the corpus driver to fuzz.
	Device string
	// OS selects the synthesized-side template (Windows if zero).
	OS template.OS
	// Seed randomizes the schedule stream; the same seed reproduces
	// the run bit-identically for any Workers value.
	Seed int64
	// Budget is the total number of schedules to execute (default
	// 256). Minimization trials are not counted against it.
	Budget int
	// MaxSteps bounds schedule length (default 12).
	MaxSteps int
	// Workers sets executor parallelism (default GOMAXPROCS via the
	// round batch size; results are independent of this value).
	Workers int
	// Plant injects a synthetic synthesis bug (see PlantKinds).
	Plant string
	// MaxDivergences stops the run early once this many distinct
	// divergences were found and minimized (default 4).
	MaxDivergences int
	// SkipMinimize disables reproducer minimization.
	SkipMinimize bool
	// Seeds are schedules executed (and admitted to the mutation
	// corpus on new coverage) before the generated stream — typically
	// loaded from examples/fuzz/. They count against Budget.
	Seeds []Schedule
	// Context, when non-nil, bounds the run: once it is done
	// (cancelled or past its deadline) the run stops at the next round
	// boundary and Fuzz returns the report of the rounds so far. nil
	// means the run never stops early.
	Context context.Context
	// RunBatch, when set, executes a batch of schedules remotely (the
	// cluster seam); nil runs them on the local harness. Outcomes
	// must be returned in input order.
	RunBatch func(round int, batch []Schedule) ([]Outcome, error)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Budget <= 0 {
		out.Budget = 256
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = 12
	}
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.MaxDivergences <= 0 {
		out.MaxDivergences = 4
	}
	return out
}

// Report is the structured result of a fuzzing run.
type Report struct {
	Device string `json:"device"`
	Seed   int64  `json:"seed"`
	Plant  string `json:"plant,omitempty"`
	// Schedules is the number of schedules executed (excluding
	// minimization trials).
	Schedules int `json:"schedules"`
	// CoverageKeys is the size of the merged coverage map: the
	// distinct recovered-block edges the synthesized side took and
	// the distinct consecutive access pairs of the original side (see
	// coverageKeys).
	CoverageKeys int `json:"coverage_keys"`
	// CorpusSize counts schedules that earned a place in the mutation
	// corpus by reaching new coverage.
	CorpusSize int `json:"corpus_size"`
	// Unreached lists, in ascending order, the addresses of the
	// recovered blocks the synthesized side never ran in this run.
	Unreached []uint32 `json:"unreached,omitempty"`
	// Unexplored counts schedules that drove the synthesized driver
	// into code the exploration never reached.
	Unexplored int `json:"unexplored"`
	// Divergences are the confirmed behavioral differences, each with
	// a minimized reproducer when minimization ran.
	Divergences []Divergence `json:"divergences,omitempty"`
	// Errors are harness-level failures (recovered panics included).
	Errors []string `json:"errors,omitempty"`
}

// Fuzz runs the differential fuzzing loop on an already-built
// harness. Each round generates a batch of schedules purely from
// (seed, round, index) and the corpus snapshot at the round start,
// executes them (in parallel locally, or remotely through
// cfg.RunBatch), and merges results in index order — so the coverage
// map, corpus growth and divergence list are bit-identical for any
// worker count or shard layout.
func Fuzz(h *Harness, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Device: h.Info.Name, Seed: cfg.Seed, Plant: cfg.Plant}
	seed := uint64(cfg.Seed)

	covered := map[uint64]bool{}
	var corpus []Schedule
	seenDiv := map[string]bool{} // dedup by kind+detail

	// merge folds one batch's outcomes into the run state, strictly
	// in index order: corpus admission and divergence dedup depend on
	// iteration order. Returns false once MaxDivergences is reached.
	merge := func(batch []Schedule, outs []Outcome) bool {
		for i, out := range outs {
			rep.Schedules++
			if out.Err != "" {
				rep.Errors = append(rep.Errors, out.Err)
				continue
			}
			if out.Unexplored {
				rep.Unexplored++
			}
			fresh := false
			for _, k := range out.CovKeys {
				if !covered[k] {
					covered[k] = true
					fresh = true
				}
			}
			if fresh {
				corpus = append(corpus, batch[i])
			}
			if d := out.Divergence; d != nil {
				key := d.Kind + "|" + d.Detail
				if seenDiv[key] {
					continue
				}
				seenDiv[key] = true
				if !cfg.SkipMinimize {
					min, trials := Minimize(h, d.Schedule, 200)
					d.Minimized = &min
					d.MinimizeTrials = trials
				}
				rep.Divergences = append(rep.Divergences, *d)
				if len(rep.Divergences) >= cfg.MaxDivergences {
					return false
				}
			}
		}
		return true
	}
	finish := func() (*Report, error) {
		rep.CoverageKeys, rep.CorpusSize = len(covered), len(corpus)
		addrs := h.code.Addrs()
		reached := make([]bool, len(addrs))
		for k := range covered {
			// A peer's outcome may name an edge to a block the
			// graph lacks; it reaches nothing.
			if t := synthdrv.EdgeTarget(k); k&accessPairBit == 0 && t < len(reached) {
				reached[t] = true
			}
		}
		for id, ok := range reached {
			if !ok {
				rep.Unreached = append(rep.Unreached, addrs[id])
			}
		}
		return rep, nil
	}

	// The batch size is fixed — NOT derived from Workers — because it
	// shapes the (round, index) schedule stream and the corpus
	// snapshot boundaries. Workers only parallelize execution inside
	// a batch.
	const batchSize = 16

	runBatch := func(round int, batch []Schedule) ([]Outcome, error) {
		if cfg.RunBatch != nil {
			outs, err := cfg.RunBatch(round, batch)
			if err != nil {
				return nil, fmt.Errorf("difffuzz: round %d: %w", round, err)
			}
			if len(outs) != len(batch) {
				return nil, fmt.Errorf("difffuzz: round %d: %d outcomes for %d schedules", round, len(outs), len(batch))
			}
			return outs, nil
		}
		return RunBatch(h, batch, cfg.Workers), nil
	}

	// Seed schedules run first (round -1) and feed the corpus.
	if len(cfg.Seeds) > 0 {
		seeds := cfg.Seeds
		if len(seeds) > cfg.Budget {
			seeds = seeds[:cfg.Budget]
		}
		outs, err := runBatch(-1, seeds)
		if err != nil {
			return rep, err
		}
		if !merge(seeds, outs) {
			return finish()
		}
	}

	for round := 0; rep.Schedules < cfg.Budget; round++ {
		if cfg.Context != nil && cfg.Context.Err() != nil {
			return finish()
		}
		n := batchSize
		if left := cfg.Budget - rep.Schedules; n > left {
			n = left
		}
		batch := make([]Schedule, n)
		for i := range batch {
			batch[i] = generate(seed, round, i, cfg.MaxSteps, corpus)
		}
		outs, err := runBatch(round, batch)
		if err != nil {
			return rep, err
		}
		if !merge(batch, outs) {
			return finish()
		}
	}
	return finish()
}

// RunBatch executes a batch of schedules on the harness with the
// given parallelism, returning outcomes in input order. It is the
// local executor for Fuzz and the peer-side executor for cluster
// fuzz shards. It starts at most one goroutine per schedule whatever
// workers asks for, which also bounds the rigs alive at once.
func RunBatch(h *Harness, batch []Schedule, workers int) []Outcome {
	workers = max(1, min(workers, len(batch)))
	outs := make([]Outcome, len(batch))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i] = h.RunSchedule(batch[i])
			}
		}()
	}
	for i := range batch {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return outs
}

// Run builds a harness and fuzzes it: the one-call entry point used
// by the CLI and the job service.
func Run(cfg Config) (*Report, error) {
	h, err := NewHarness(cfg.Device, cfg.OS, cfg.Plant)
	if err != nil {
		return nil, err
	}
	return Fuzz(h, cfg)
}
